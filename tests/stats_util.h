#pragma once

// Shared helper for suites that compare RuntimeStats across runs.

#include "rt/runtime.h"

namespace polypart::rt {

/// `s` with the meta-counters zeroed: real wall time and the cache
/// telemetry (FM memo, specialized programs) depend on the host and on what
/// else the process ran, not on the launch stream.  Every other field is
/// byte-deterministic for a given configuration and launch sequence.
inline RuntimeStats deterministicStats(RuntimeStats s) {
  s.resolutionWallSeconds = 0;
  s.fmMemoHits = s.fmMemoMisses = s.fmMemoEvictions = 0;
  s.specProgramHits = s.specProgramMisses = s.specProgramEvictions = 0;
  return s;
}

}  // namespace polypart::rt
