#include "perfbench/harness/measure.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <thread>
#include <tuple>

#include "support/error.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace polypart::perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tailPercentile(long long samples, long long beyond) {
  if (samples <= beyond) return 50;
  const double p = 100.0 * (1.0 - static_cast<double>(beyond) /
                                      static_cast<double>(samples));
  return std::max(50.0, std::floor(p * 10.0) / 10.0);
}

std::pair<double, double> measureInChild(
    const std::function<std::pair<double, double>()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw Error("perfbench: pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error("perfbench: fork() failed");
  }
  double v[2] = {0, 0};
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      std::tie(v[0], v[1]) = body();
      if (::write(fds[1], v, sizeof v) == static_cast<ssize_t>(sizeof v)) code = 0;
    } catch (...) {
    }
    ::_exit(code);  // no destructors or atexit handlers of the parent's state
  }
  ::close(fds[1]);
  ssize_t got = 0;
  do {
    got = ::read(fds[0], v, sizeof v);
  } while (got < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof v) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw Error("perfbench: set-up measurement child failed");
  return {v[0], v[1]};
}

double peakRssMiB() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

BuildInfo buildInfo() {
  BuildInfo b;
  b.buildType = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  b.optimized = true;
#endif
  b.hardwareConcurrency = std::thread::hardware_concurrency();
#if defined(__clang__)
  b.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  b.compiler = "gcc " __VERSION__;
#else
  b.compiler = "unknown";
#endif
  return b;
}

}  // namespace polypart::perfbench
