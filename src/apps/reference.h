#pragma once

// Plain CPU reference implementations of the benchmark computations.  The
// integration tests compare multi-GPU partitioned execution against these
// bit-for-bit (the IR engine and these loops perform the same double
// arithmetic in the same order per element).

#include <span>

#include "support/arith.h"

namespace polypart::apps {

/// y[i] += a * x[i].
void refSaxpy(double a, std::span<const double> x, std::span<double> y);

/// One Hotspot step on an n x n grid (interior 5-point relaxation with power
/// injection, borders copied).
void refHotspotStep(i64 n, double k, double dt, std::span<const double> tin,
                    std::span<const double> power, std::span<double> tout);

/// Direct O(n^2) gravitational accelerations with softening 1e-9.
void refNBodyForces(i64 n, std::span<const double> px, std::span<const double> py,
                    std::span<const double> pz, std::span<const double> mass,
                    std::span<double> ax, std::span<double> ay, std::span<double> az);

/// Velocity/position integration.
void refNBodyUpdate(i64 n, double dt, std::span<double> px, std::span<double> py,
                    std::span<double> pz, std::span<double> vx, std::span<double> vy,
                    std::span<double> vz, std::span<const double> ax,
                    std::span<const double> ay, std::span<const double> az);

/// C = A * B (n x n, row-major).
void refMatmul(i64 n, std::span<const double> a, std::span<const double> b,
               std::span<double> c);

/// CSR sparse matvec: y[r] = sum over row r of vals[j] * x[colIdx[j]],
/// nonzeros in j-ascending order (the accumulation order the IR kernel uses).
void refSpmv(std::span<const i64> rowPtr, std::span<const i64> colIdx,
             std::span<const double> vals, std::span<const double> x,
             std::span<double> y);

/// BFS push sweep: next[colIdx[j]] = 1.0 for every edge j of every frontier
/// node front[t].
void refBfsPush(std::span<const i64> rowPtr, std::span<const i64> colIdx,
                std::span<const i64> front, std::span<double> next);

/// Histogram: hist[keys[i]] += 1.0, keys in ascending i order.
void refHistogram(std::span<const i64> keys, std::span<double> hist);

}  // namespace polypart::apps
