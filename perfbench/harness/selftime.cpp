#include "perfbench/harness/selftime.h"

#include <algorithm>

namespace polypart::perfbench {

std::vector<WallSpan> wallSpans(const json::Value& chromeTrace) {
  std::vector<WallSpan> out;
  for (const json::Value& e : chromeTrace.at("traceEvents").asArray()) {
    if (e.at("ph").asString() != "X" || e.at("pid").asInt() != 1) continue;
    out.push_back(WallSpan{e.at("name").asString(),
                           static_cast<int>(e.at("tid").asInt()),
                           e.at("ts").asDouble(), e.at("dur").asDouble()});
  }
  return out;
}

std::string layerOf(const std::string& spanName) {
  const std::size_t colon = spanName.find(':');
  return colon == std::string::npos ? spanName
                                    : spanName.substr(0, colon + 1) + "*";
}

SelfTimes aggregateSelfTimes(std::vector<WallSpan> spans) {
  // Parents sort before their children: earlier start first, and on equal
  // starts the longer span encloses the shorter one.
  std::sort(spans.begin(), spans.end(), [](const WallSpan& a, const WallSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.tsMicros != b.tsMicros) return a.tsMicros < b.tsMicros;
    return a.durMicros > b.durMicros;
  });

  struct Open {
    const WallSpan* span;
    double end;
    double covered = 0;  // union of direct children, clipped to this span
    double cursor;       // children are visited in start order
  };
  SelfTimes out;
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    out.selfMicros[layerOf(o.span->name)] += o.span->durMicros - o.covered;
  };
  int tid = 0;
  for (const WallSpan& s : spans) {
    const double end = s.tsMicros + s.durMicros;
    if (!stack.empty() && s.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
    }
    tid = s.tid;
    while (!stack.empty() && stack.back().end <= s.tsMicros) {
      close(stack.back());
      stack.pop_back();
    }
    if (stack.empty()) {
      out.rootMicros += s.durMicros;
    } else {
      Open& parent = stack.back();
      const double from = std::max(s.tsMicros, parent.cursor);
      const double to = std::min(end, parent.end);
      if (to > from) parent.covered += to - from;
      parent.cursor = std::max(parent.cursor, to);
    }
    stack.push_back(Open{&s, end, 0, s.tsMicros});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return out;
}

}  // namespace polypart::perfbench
