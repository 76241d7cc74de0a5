#pragma once

// Wall-clock self-time aggregation over a Chrome trace.
//
// The runtime records nested wall-domain spans (launch:<kernel> around
// sync-reads, launch-kernels:<kernel>, update-trackers, ...).  A layer's self
// time is its span's duration minus the part of that interval its child
// spans cover, so summing self times never counts the same host microsecond
// twice.  Nesting is recovered per thread track from interval containment.

#include <map>
#include <string>
#include <vector>

#include "support/json.h"

namespace polypart::perfbench {

/// One complete wall-domain span ("ph": "X", pid 1) of a Chrome trace.
struct WallSpan {
  std::string name;
  int tid = 0;
  double tsMicros = 0;
  double durMicros = 0;
};

/// The wall-domain spans of a trace object as produced by
/// trace::Tracer::toJson(); sim- and tenant-domain events are skipped.
std::vector<WallSpan> wallSpans(const json::Value& chromeTrace);

/// Groups span names per layer: "launch:hotspot" -> "launch:*"; names
/// without a ':' are their own layer.
std::string layerOf(const std::string& spanName);

struct SelfTimes {
  /// Self microseconds per layer (see layerOf).
  std::map<std::string, double> selfMicros;
  /// Microseconds covered by root spans (spans with no enclosing span):
  /// the host time the trace attributes to any layer at all.
  double rootMicros = 0;
};

SelfTimes aggregateSelfTimes(std::vector<WallSpan> spans);

}  // namespace polypart::perfbench
