#pragma once

// Shared helpers for the fuzz suites (tracker, pipeline, pset, enumerator).
//
// Every suite derives its per-case seeds from one base seed and reports the
// *case* seed on failure, so a single failing case replays without re-running
// the whole sweep:
//
//   POLYPART_FUZZ_SEED=<n> ./build/tests/pp_fuzz_tests --gtest_filter=...
//
// When POLYPART_FUZZ_SEED is set, each suite runs exactly one case with that
// seed (replay mode) instead of its full sweep.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "support/error.h"
#include "support/rng.h"

namespace polypart::fuzz {

/// The raw value of environment variable `name`, or nullopt when it is
/// unset or empty.  An empty string is treated as unset: `env
/// POLYPART_X= cmd` is how shells clear a variable without unexporting it.
inline std::optional<std::string> envValue(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

/// Parses environment variable `name` as an unsigned 64-bit integer (base
/// auto-detected: 0x..., 0..., decimal).  Unset/empty => nullopt.  Anything
/// unparseable — trailing garbage, a leading minus, out-of-range — throws
/// Error naming the variable instead of silently falling back to a default.
inline std::optional<std::uint64_t> envU64(const char* name) {
  std::optional<std::string> v = envValue(name);
  if (!v) return std::nullopt;
  const std::string& s = *v;
  // strtoull silently wraps negative inputs; reject them up front.
  std::size_t first = s.find_first_not_of(" \t");
  if (first != std::string::npos && s[first] == '-') {
    throw Error("invalid " + std::string(name) + " value '" + s +
                "' (expected an unsigned integer)");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw Error("invalid " + std::string(name) + " value '" + s +
                "' (expected an unsigned integer, e.g. 42 or 0x2a)");
  }
  return static_cast<std::uint64_t>(parsed);
}

/// True when POLYPART_FUZZ_SEED pins a single case for replay (empty string
/// counts as unset).
inline bool seedPinned() { return envValue("POLYPART_FUZZ_SEED").has_value(); }

/// The base seed: POLYPART_FUZZ_SEED when set, else the suite's default.
/// A malformed value throws (envU64) instead of silently running the full
/// sweep the caller thought they had pinned to one case.
inline std::uint64_t baseSeed(std::uint64_t fallback) {
  return envU64("POLYPART_FUZZ_SEED").value_or(fallback);
}

/// Derives the seed of case `index` from the base seed (one SplitMix64
/// step): case seeds are decorrelated, and each is individually replayable
/// by exporting it as POLYPART_FUZZ_SEED.
inline std::uint64_t caseSeed(std::uint64_t base, int index) {
  std::uint64_t z =
      base + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Number of cases to run: 1 in replay mode, `sweep` otherwise.
inline int caseCount(int sweep) { return seedPinned() ? 1 : sweep; }

/// Seed of case `index`: the pinned seed itself in replay mode.
inline std::uint64_t seedFor(std::uint64_t fallbackBase, int index) {
  std::uint64_t base = baseSeed(fallbackBase);
  return seedPinned() ? base : caseSeed(base, index);
}

/// Rng that remembers its seed and renders the replay instructions failure
/// messages carry.
class SeededRng : public Rng {
 public:
  explicit SeededRng(std::uint64_t seed) : Rng(seed), seed_(seed) {}
  std::uint64_t seed() const { return seed_; }
  std::string replay() const {
    return "seed " + std::to_string(seed_) + " (replay: POLYPART_FUZZ_SEED=" +
           std::to_string(seed_) + ")";
  }

 private:
  std::uint64_t seed_ = 0;
};

}  // namespace polypart::fuzz
