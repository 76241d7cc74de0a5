#include "support/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/error.h"

namespace polypart::trace {

namespace {

/// Trace categories that feed the phase breakdown (see phaseBreakdown()).
constexpr const char* kCatSimKernel = "sim.kernel";
constexpr const char* kCatSimCopy = "sim.copy";
constexpr const char* kCatSimPattern = "sim.pattern";

}  // namespace

Tracer::Tracer(TracerOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

double Tracer::nowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

double Tracer::beginTimestamp() {
  if (options_.deterministicTimestamps) return static_cast<double>(seq_++);
  return nowMicros();
}

Event& Tracer::append(Event::Kind kind, const char* category,
                      std::string&& name, std::initializer_list<Arg> args) {
  Event& e = events_.emplace_back();
  e.kind = kind;
  e.category = category;
  e.name = std::move(name);
  e.launch = currentLaunch();
  e.tsMicros = beginTimestamp();
  for (const Arg& a : args)
    if (e.numArgs < kMaxArgs) e.args[static_cast<std::size_t>(e.numArgs++)] = a;
  return e;
}

void Tracer::instantImpl(const char* category, std::string name,
                         std::initializer_list<Arg> args) {
  append(Event::Kind::Instant, category, std::move(name), args);
}

void Tracer::counterImpl(const char* category, std::string name,
                         double value) {
  append(Event::Kind::Counter, category, std::move(name), {}).value = value;
}

void Tracer::simSpanImpl(const char* category, std::string name, int simTid,
                         double startSeconds, double durationSeconds,
                         std::initializer_list<Arg> args) {
  Event& e = append(Event::Kind::Span, category, std::move(name), args);
  e.pid = kSimPid;
  e.track = simTid;
  e.tsMicros = startSeconds * 1e6;
  e.durMicros = durationSeconds * 1e6;
}

void Tracer::completeSpanImpl(const char* category, std::string&& name,
                              double tsStart, i64 launch,
                              const std::array<Arg, kMaxArgs>& args,
                              int numArgs) {
  Event& e = events_.emplace_back();
  e.kind = Event::Kind::Span;
  e.category = category;
  e.name = std::move(name);
  e.launch = launch;
  e.tsMicros = tsStart;
  e.durMicros =
      options_.deterministicTimestamps ? 0 : nowMicros() - tsStart;
  e.args = args;
  e.numArgs = numArgs;
}

i64 Tracer::beginLaunch(const std::string& kernelName) {
  const i64 id = nextLaunch_++;
  launchNames_.emplace(id, kernelName);
  currentLaunch_ = id;
  return id;
}

void Tracer::endLaunch() { currentLaunch_ = -1; }

void Tracer::nameSimTrack(int simTid, std::string name) {
  simTrackNames_[simTid] = std::move(name);
}

std::size_t Tracer::eventCount() const { return events_.size(); }

json::Value Tracer::toJson() const {
  json::Value events = json::Value::array();
  auto meta = [&](int pid, int tid, const char* what, const std::string& name) {
    json::Value m = json::Value::object();
    m["name"] = what;
    m["ph"] = "M";
    m["pid"] = pid;
    m["tid"] = tid;
    json::Value args = json::Value::object();
    args["name"] = name;
    m["args"] = std::move(args);
    events.push(std::move(m));
  };
  meta(kWallPid, 0, "process_name", "host (wall clock)");
  meta(kSimPid, 0, "process_name", "machine (simulated time)");
  if (!events_.empty()) meta(kWallPid, kHostTid, "thread_name", "host");
  for (const auto& [tid, name] : simTrackNames_)
    meta(kSimPid, tid, "thread_name", name);

  // Stable order: events in append order, then a stable sort by timestamp
  // (ordinals under deterministic mode, so output is byte-reproducible).
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     return a->tsMicros < b->tsMicros;
                   });

  for (const Event* ep : ordered) {
    const Event& e = *ep;
    json::Value v = json::Value::object();
    v["name"] = e.name;
    v["cat"] = e.category;
    switch (e.kind) {
      case Event::Kind::Span: v["ph"] = "X"; break;
      case Event::Kind::Instant: v["ph"] = "i"; break;
      case Event::Kind::Counter: v["ph"] = "C"; break;
    }
    v["ts"] = e.tsMicros;
    if (e.kind == Event::Kind::Span) v["dur"] = e.durMicros;
    if (e.kind == Event::Kind::Instant) v["s"] = "t";
    v["pid"] = e.pid;
    v["tid"] = e.pid == kWallPid ? kHostTid : e.track;
    json::Value args = json::Value::object();
    if (e.launch >= 0) args["launch"] = e.launch;
    for (int a = 0; a < e.numArgs; ++a)
      args[e.args[static_cast<std::size_t>(a)].key] =
          e.args[static_cast<std::size_t>(a)].value;
    if (e.kind == Event::Kind::Counter) args["value"] = e.value;
    if (args.asObject().size() > 0) v["args"] = std::move(args);
    events.push(std::move(v));
  }

  json::Value root = json::Value::object();
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  return root;
}

std::string Tracer::exportChromeTrace() const { return toJson().dump(1); }

void Tracer::writeFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  PP_ASSERT_MSG(out.good(), "cannot open trace output file");
  out << exportChromeTrace();
}

std::vector<LaunchBreakdown> Tracer::phaseBreakdown() const {
  std::map<i64, LaunchBreakdown> by;
  for (const Event& e : events_) {
    if (e.kind != Event::Kind::Span || e.pid != kSimPid || e.launch < 0)
      continue;
    LaunchBreakdown& lb = by[e.launch];
    lb.launch = e.launch;
    const double secs = e.durMicros * 1e-6;
    if (e.category == std::string_view(kCatSimKernel))
      lb.executionSeconds += secs;
    else if (e.category == std::string_view(kCatSimCopy))
      lb.transferSeconds += secs;
    else if (e.category == std::string_view(kCatSimPattern))
      lb.patternSeconds += secs;
  }
  std::vector<LaunchBreakdown> out;
  out.reserve(by.size());
  for (auto& [id, lb] : by) {
    auto it = launchNames_.find(id);
    if (it != launchNames_.end()) lb.kernel = it->second;
    out.push_back(std::move(lb));
  }
  return out;
}

std::string formatPhaseBreakdown(const std::vector<LaunchBreakdown>& breakdown,
                                 std::size_t maxLaunchRows) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%7s  %-16s  %11s  %11s  %11s\n", "launch",
                "kernel", "execution", "transfers", "patterns");
  out += line;
  LaunchBreakdown total;
  std::size_t rows = 0;
  for (const LaunchBreakdown& lb : breakdown) {
    total.executionSeconds += lb.executionSeconds;
    total.transferSeconds += lb.transferSeconds;
    total.patternSeconds += lb.patternSeconds;
    if (rows++ >= maxLaunchRows) continue;
    std::snprintf(line, sizeof line,
                  "%7lld  %-16s  %10.1f%%  %10.1f%%  %10.1f%%\n",
                  static_cast<long long>(lb.launch), lb.kernel.c_str(),
                  100 * lb.executionShare(), 100 * lb.transferShare(),
                  100 * lb.patternShare());
    out += line;
  }
  if (rows > maxLaunchRows) {
    std::snprintf(line, sizeof line, "%7s  (%zu more launches)\n", "...",
                  rows - maxLaunchRows);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "%7s  %-16s  %10.1f%%  %10.1f%%  %10.1f%%  (busy-share of "
                "%.3f ms attributed sim time)\n",
                "total", "", 100 * total.executionShare(),
                100 * total.transferShare(), 100 * total.patternShare(),
                1e3 * total.totalSeconds());
  out += line;
  return out;
}

EnvTraceSession::EnvTraceSession() {
  if constexpr (!kTracingCompiledIn) return;
  const char* path = std::getenv("POLYPART_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  // Probe writability up front: an unwritable path would otherwise be
  // discovered only in the destructor, after the traced run completed, with
  // the whole trace silently lost.
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr)
    throw Error(std::string("invalid POLYPART_TRACE value '") + path +
                "' (expected a writable file path)");
  std::fclose(f);
  path_ = path;
  tracer_ = std::make_unique<Tracer>();
}

EnvTraceSession::~EnvTraceSession() {
  if (!tracer_) return;
  tracer_->writeFile(path_);
  std::string summary = formatPhaseBreakdown(tracer_->phaseBreakdown());
  std::fprintf(stderr,
               "[trace] %zu events written to %s (chrome://tracing, Perfetto)\n"
               "[trace] per-launch phase breakdown:\n%s",
               tracer_->eventCount(), path_.c_str(), summary.c_str());
}

}  // namespace polypart::trace
