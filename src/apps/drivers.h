#pragma once

// Host-side drivers for the benchmark applications.
//
// Each benchmark has a driver run*(rt::Runtime&, ...): the "transformed"
// multi-GPU application — host logic as the source-to-source rewriter would
// emit it, calling the runtime's CUDA-replacement primitives (Sections 5,
// 8).  Hotspot, N-Body and Matmul, the applications of the paper's figures,
// also have reference*(sim::Machine&, ...): the single-device binary the
// paper compares against (NVCC-compiled original), launching the
// unpartitioned kernels directly on device 0.
//
// Host pointers may be null in TimingOnly mode; data then never moves and
// only the simulated clock advances.

#include "rt/runtime.h"
#include "sim/machine.h"

namespace polypart::apps {

/// Launch geometry used by all drivers (K80-era defaults).
inline constexpr i64 kBlock1D = 256;
inline constexpr i64 kBlock2D = 16;

// -- saxpy ---------------------------------------------------------------------
void runSaxpy(rt::Runtime& rt, i64 n, double a, const double* x, double* yInOut);

// -- Hotspot (iterative 5-point stencil, ping-pong buffers) --------------------
void runHotspot(rt::Runtime& rt, i64 n, int iterations, double* tempInOut,
                const double* power);
void referenceHotspot(sim::Machine& m, i64 n, int iterations, double* tempInOut,
                      const double* power);

// -- N-Body (force pass + integration per iteration) ---------------------------
struct NBodyState {
  double* posx;
  double* posy;
  double* posz;
  double* velx;
  double* vely;
  double* velz;
  const double* mass;
};
void runNBody(rt::Runtime& rt, i64 n, int iterations, const NBodyState& state);
void referenceNBody(sim::Machine& m, i64 n, int iterations, const NBodyState& state);

// -- Matmul ---------------------------------------------------------------------
void runMatmul(rt::Runtime& rt, i64 n, const double* a, const double* b, double* c);
void referenceMatmul(sim::Machine& m, i64 n, const double* a, const double* b,
                     double* c);

// -- irregular workloads (may-access tier) --------------------------------------

/// A CSR matrix plus dense operand dimensions (host-side views).
struct CsrMatrix {
  i64 nrows = 0;
  i64 ncols = 0;
  i64 nnz = 0;
  const i64* rowPtr = nullptr;  // nrows + 1 entries
  const i64* colIdx = nullptr;  // nnz entries
  const double* vals = nullptr; // nnz entries
};

/// y = A * x for a CSR matrix A.
void runSpmv(rt::Runtime& rt, const CsrMatrix& a, const double* x, double* y);

/// One BFS push sweep over `front` (nfront node ids): nextInOut[v] = 1.0 for
/// every neighbour v of a frontier node.
void runBfsPush(rt::Runtime& rt, i64 nnodes, i64 nedges, const i64* rowPtr,
                const i64* colIdx, i64 nfront, const i64* front,
                double* nextInOut);

/// histInOut[keys[i]] += 1.0 over all n keys (bins in [0, nbins)).
void runHistogram(rt::Runtime& rt, i64 n, i64 nbins, const i64* keys,
                  double* histInOut);

}  // namespace polypart::apps
