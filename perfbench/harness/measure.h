#pragma once

// Sample statistics and process-level measurements for the benchmark.

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace polypart::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile `p` in [0, 100] of `samples` (unsorted).
/// Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// The highest percentile (to 0.1) that leaves at least `beyond` of
/// `samples` samples above it — the tail a run of that size can resolve.
double tailPercentile(long long samples, long long beyond = 10);

/// Runs `body` in a forked child process and returns its result.  The child
/// starts from this process's state at the call, so calling it before this
/// process has done the measured work gives a cold measurement (the
/// process-wide FM projection memo empty).  Throws if the child fails.
std::pair<double, double> measureInChild(
    const std::function<std::pair<double, double>()>& body);

/// Peak resident set size of this process, in MiB.
double peakRssMiB();

/// Build facts recorded next to every result.
struct BuildInfo {
  std::string buildType;
  bool optimized = false;
  unsigned hardwareConcurrency = 0;
  std::string compiler;
};
BuildInfo buildInfo();

}  // namespace polypart::perfbench
