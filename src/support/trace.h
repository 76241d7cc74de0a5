#pragma once

// Structured tracing for the launch pipeline.
//
// The paper's evaluation attributes runtime overhead to phases — Fig. 7
// splits each launch into transfers, dependency-resolution "patterns", and
// kernel execution — but aggregate counters (RuntimeStats / MachineStats)
// cannot show *where inside a launch* the time goes.  This module is the
// missing instrumentation layer:
//
//  - scoped spans, instant events, and counters, appended to one in-memory
//    event log,
//  - three event domains: *wall* events are timestamped with the host's
//    steady clock (what the profiler user experiences), *sim* events carry
//    timestamps from the simulated machine clock (so the modeled overlap of
//    compute and copy engines is visible on a timeline),
//  - a Chrome-trace-format JSON exporter (chrome://tracing, Perfetto); the
//    wall domain is pid 1, the simulated machine is pid 2,
//  - a per-launch phase-breakdown summary computed directly from the trace
//    events, reproducing the Fig. 7 transfer/pattern/execution shares from a
//    single traced run instead of the three-run α/β/γ method.
//
// A tracer is single-threaded: the runtime records from the thread that
// calls it, and every wall-domain event lands on one host track.  Every hook
// is a free function taking `Tracer*`: with a null tracer it is a branch.

#include <array>
#include <chrono>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/arith.h"
#include "support/json.h"

namespace polypart::trace {

/// One key/value annotation on an event.  Keys must be string literals (the
/// tracer stores the pointer); values are integers — byte counts, device
/// ordinals.
struct Arg {
  const char* key = nullptr;
  i64 value = 0;
};

/// Maximum annotations per event; chosen for the largest user (peer-copy
/// events carry src/dst/bytes).
inline constexpr int kMaxArgs = 3;

/// Chrome-trace pid of each event domain (see the module comment).
inline constexpr int kWallPid = 1;
inline constexpr int kSimPid = 2;
/// Chrome-trace tid of the wall domain's single host track.
inline constexpr int kHostTid = 1;

struct Event {
  enum class Kind : unsigned char { Span, Instant, Counter };
  Kind kind = Kind::Instant;
  /// Event domain: kWallPid (host clock) or kSimPid (simulated machine clock).
  int pid = kWallPid;
  /// Track within the sim domain: the engine ordinal (see sim/machine.h).
  /// Wall events all use kHostTid.
  int track = 0;
  /// Launch id current when the event began (-1 = outside any launch).
  i64 launch = -1;
  double tsMicros = 0;
  double durMicros = 0;  // spans only
  const char* category = "";
  std::string name;
  std::array<Arg, kMaxArgs> args{};
  int numArgs = 0;
  double value = 0;  // counters only: the sampled value
};

struct TracerOptions {
  /// Replaces wall-clock timestamps with a per-tracer event ordinal and
  /// zeroes durations, making trace output byte-deterministic across runs
  /// (sim-domain timestamps are deterministic either way).
  /// Useful for golden-file diffing; off for actual profiling.
  bool deterministicTimestamps = false;
};

/// Per-launch share of the three Fig. 7 overhead classes, in simulated time.
/// `executionSeconds` sums kernel spans, `transferSeconds` sums copy-engine
/// spans, `patternSeconds` sums the modeled host-side resolution cost —
/// all restricted to events recorded while this launch was current.
struct LaunchBreakdown {
  i64 launch = -1;
  std::string kernel;
  double executionSeconds = 0;
  double transferSeconds = 0;
  double patternSeconds = 0;

  double totalSeconds() const {
    return executionSeconds + transferSeconds + patternSeconds;
  }
  double executionShare() const {
    double t = totalSeconds();
    return t > 0 ? executionSeconds / t : 0;
  }
  double transferShare() const {
    double t = totalSeconds();
    return t > 0 ? transferSeconds / t : 0;
  }
  double patternShare() const {
    double t = totalSeconds();
    return t > 0 ? patternSeconds / t : 0;
  }
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const TracerOptions& options() const { return options_; }

  // -- recording -------------------------------------------------------------

  void instantImpl(const char* category, std::string name,
                   std::initializer_list<Arg> args);
  void counterImpl(const char* category, std::string name, double value);
  /// Sim-domain span; timestamps are simulated seconds supplied by the
  /// caller (the machine model), not read from any real clock.
  void simSpanImpl(const char* category, std::string name, int simTid,
                   double startSeconds, double durationSeconds,
                   std::initializer_list<Arg> args);
  /// Wall-domain span completion; `tsStart` comes from beginTimestamp() and
  /// `launch` from currentLaunch() at span construction.
  void completeSpanImpl(const char* category, std::string&& name,
                        double tsStart, i64 launch,
                        const std::array<Arg, kMaxArgs>& args, int numArgs);
  /// Timestamp for a span start: wall microseconds since the tracer epoch,
  /// or the next event ordinal under deterministicTimestamps.
  double beginTimestamp();

  // -- launch context --------------------------------------------------------

  /// Marks the start of a partitioned launch; events recorded until
  /// endLaunch() are attributed to the returned id.  Ids are assigned by the
  /// tracer (monotone across every runtime sharing it).
  i64 beginLaunch(const std::string& kernelName);
  void endLaunch();
  i64 currentLaunch() const { return currentLaunch_; }

  // -- track naming ----------------------------------------------------------

  /// Names a sim-domain track ("gpu0 compute").
  void nameSimTrack(int simTid, std::string name);

  // -- export / analysis -----------------------------------------------------

  std::size_t eventCount() const;
  /// The full Chrome trace object: {"traceEvents": [...], ...}.
  json::Value toJson() const;
  /// toJson() serialized (indent 1 — Perfetto accepts either).
  std::string exportChromeTrace() const;
  void writeFile(const std::string& path) const;

  /// Per-launch Fig. 7-style phase breakdown, computed from the recorded
  /// events; ordered by launch id.
  std::vector<LaunchBreakdown> phaseBreakdown() const;

 private:
  double nowMicros() const;
  Event& append(Event::Kind kind, const char* category, std::string&& name,
                std::initializer_list<Arg> args);

  TracerOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  i64 seq_ = 0;  // deterministic-timestamp ordinal
  i64 currentLaunch_ = -1;
  i64 nextLaunch_ = 0;

  std::vector<Event> events_;  // in append order
  std::map<i64, std::string> launchNames_;
  std::map<int, std::string> simTrackNames_;
};

// -- hooks (the only API instrumentation sites use) ---------------------------

inline void instant(Tracer* t, const char* category, std::string_view name,
                    std::initializer_list<Arg> args = {}) {
  if (t) t->instantImpl(category, std::string(name), args);
}

/// One sample of the counter track `name` (Chrome "ph":"C"); counters of
/// either stats table are emitted through counters::Table::traceChanges.
inline void counter(Tracer* t, const char* category, std::string_view name,
                    double value) {
  if (t) t->counterImpl(category, std::string(name), value);
}

inline void simSpan(Tracer* t, const char* category, std::string_view name,
                    int simTid, double startSeconds, double durationSeconds,
                    std::initializer_list<Arg> args = {}) {
  if (t)
    t->simSpanImpl(category, std::string(name), simTid, startSeconds,
                   durationSeconds, args);
}

/// Scoped wall-domain span.  Records its start timestamp and launch context
/// at construction and appends one complete event at destruction; with a
/// null tracer both are a branch.  `name` and `nameSuffix` are concatenated
/// only when tracing is live (no allocation on the disabled path).
class Span {
 public:
  Span(Tracer* t, const char* category, std::string_view name,
       std::string_view nameSuffix = {}, std::initializer_list<Arg> args = {}) {
    if (!t) return;
    tracer_ = t;
    category_ = category;
    name_.reserve(name.size() + nameSuffix.size());
    name_.append(name);
    name_.append(nameSuffix);
    for (const Arg& a : args)
      if (numArgs_ < kMaxArgs) args_[static_cast<std::size_t>(numArgs_++)] = a;
    launch_ = t->currentLaunch();
    ts_ = t->beginTimestamp();
  }

  ~Span() {
    if (tracer_)
      tracer_->completeSpanImpl(category_, std::move(name_), ts_, launch_,
                                args_, numArgs_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* category_ = "";
  std::string name_;
  double ts_ = 0;
  i64 launch_ = -1;
  std::array<Arg, kMaxArgs> args_{};
  int numArgs_ = 0;
};

/// Scoped launch context: beginLaunch at construction, a "launch:<kernel>"
/// span for the whole scope, endLaunch at destruction.
class LaunchScope {
 public:
  LaunchScope(Tracer* t, const std::string& kernelName) : tracer_(nullptr) {
    if (!t) return;
    tracer_ = t;
    t->beginLaunch(kernelName);
    span_.emplace(t, "runtime", "launch:", kernelName);
  }
  ~LaunchScope() {
    if (tracer_) {
      span_.reset();  // the span still carries the launch id (captured at start)
      tracer_->endLaunch();
    }
  }

  LaunchScope(const LaunchScope&) = delete;
  LaunchScope& operator=(const LaunchScope&) = delete;

 private:
  Tracer* tracer_;
  std::optional<Span> span_;
};

/// Fig. 7-style table over a breakdown (per-launch rows capped at
/// `maxLaunchRows`, aggregate row always included).
std::string formatPhaseBreakdown(const std::vector<LaunchBreakdown>& breakdown,
                                 std::size_t maxLaunchRows = 16);

/// The POLYPART_TRACE=<path> hook for examples and benches: construct one in
/// main(), attach tracer() to every RuntimeConfig.  When the environment
/// variable is unset, tracer() is null and nothing is recorded; when set,
/// the destructor writes the Chrome trace to <path> and prints the phase
/// breakdown summary to stderr.
class EnvTraceSession {
 public:
  EnvTraceSession();
  ~EnvTraceSession();

  EnvTraceSession(const EnvTraceSession&) = delete;
  EnvTraceSession& operator=(const EnvTraceSession&) = delete;

  Tracer* tracer() { return tracer_.get(); }

 private:
  std::unique_ptr<Tracer> tracer_;
  std::string path_;
};

}  // namespace polypart::trace
