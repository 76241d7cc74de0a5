#include "apps/drivers.h"

#include "apps/kernels.h"
#include "support/arith.h"

namespace polypart::apps {

using ir::Dim3;
using rt::LaunchArg;
using rt::MemcpyKind;
using rt::Runtime;
using rt::VirtualBuffer;
using sim::DevBuffer;
using sim::KernelArg;
using sim::Machine;

namespace {

constexpr i64 kElem = 8;  // storage bytes per element

i64 ceilBlocks(i64 elems, i64 block) { return ceilDiv(elems, block); }

/// Hotspot model constants (arbitrary but shared with the CPU reference).
constexpr double kHotspotK = 0.175;
constexpr double kHotspotDt = 0.05;
constexpr double kNBodyDt = 0.01;

}  // namespace

// ===== saxpy ===================================================================

void runSaxpy(Runtime& rt, i64 n, double a, const double* x, double* yInOut) {
  VirtualBuffer* dx = rt.malloc(n * kElem);
  VirtualBuffer* dy = rt.malloc(n * kElem);
  rt.memcpy(dx, x, n * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dy, yInOut, n * kElem, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(a),
                      LaunchArg::ofBuffer(dx), LaunchArg::ofBuffer(dy)};
  rt.launch("saxpy", Dim3{ceilBlocks(n, kBlock1D), 1, 1}, Dim3{kBlock1D, 1, 1}, args);
  rt.memcpy(yInOut, dy, n * kElem, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  rt.free(dx);
  rt.free(dy);
}

// ===== Hotspot ==================================================================

void runHotspot(Runtime& rt, i64 n, int iterations, double* tempInOut,
                const double* power) {
  const i64 cells = n * n;
  VirtualBuffer* t0 = rt.malloc(cells * kElem);
  VirtualBuffer* t1 = rt.malloc(cells * kElem);
  VirtualBuffer* pw = rt.malloc(cells * kElem);
  rt.memcpy(t0, tempInOut, cells * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(pw, power, cells * kElem, MemcpyKind::HostToDevice);

  const i64 blocks = ceilBlocks(n, kBlock2D);
  Dim3 grid{blocks, blocks, 1};
  Dim3 block{kBlock2D, kBlock2D, 1};
  VirtualBuffer* src = t0;
  VirtualBuffer* dst = t1;
  for (int it = 0; it < iterations; ++it) {
    LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(kHotspotK),
                        LaunchArg::ofFloat(kHotspotDt), LaunchArg::ofBuffer(src),
                        LaunchArg::ofBuffer(pw), LaunchArg::ofBuffer(dst)};
    rt.launch("hotspot", grid, block, args);
    std::swap(src, dst);
  }
  rt.memcpy(tempInOut, src, cells * kElem, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  rt.free(t0);
  rt.free(t1);
  rt.free(pw);
}

void referenceHotspot(Machine& m, i64 n, int iterations, double* tempInOut,
                      const double* power) {
  const i64 cells = n * n;
  DevBuffer t0 = m.alloc(0, cells * kElem);
  DevBuffer t1 = m.alloc(0, cells * kElem);
  DevBuffer pw = m.alloc(0, cells * kElem);
  m.copyHostToDevice(t0, 0, tempInOut, cells * kElem);
  m.copyHostToDevice(pw, 0, power, cells * kElem);
  m.synchronizeAll();  // cudaMemcpy is blocking

  ir::KernelPtr k = buildHotspot();
  const i64 blocks = ceilBlocks(n, kBlock2D);
  ir::LaunchConfig cfg{{blocks, blocks, 1}, {kBlock2D, kBlock2D, 1}};
  DevBuffer src = t0, dst = t1;
  for (int it = 0; it < iterations; ++it) {
    KernelArg args[] = {KernelArg::ofInt(n), KernelArg::ofFloat(kHotspotK),
                        KernelArg::ofFloat(kHotspotDt), KernelArg::ofBuffer(src),
                        KernelArg::ofBuffer(pw), KernelArg::ofBuffer(dst)};
    m.launchKernel(0, *k, cfg, args);
    std::swap(src, dst);
  }
  m.synchronizeAll();
  m.copyDeviceToHost(tempInOut, src, 0, cells * kElem);
  m.synchronizeAll();
  m.free(t0);
  m.free(t1);
  m.free(pw);
}

// ===== N-Body ===================================================================

void runNBody(Runtime& rt, i64 n, int iterations, const NBodyState& s) {
  const i64 bytes = n * kElem;
  VirtualBuffer* px = rt.malloc(bytes);
  VirtualBuffer* py = rt.malloc(bytes);
  VirtualBuffer* pz = rt.malloc(bytes);
  VirtualBuffer* vx = rt.malloc(bytes);
  VirtualBuffer* vy = rt.malloc(bytes);
  VirtualBuffer* vz = rt.malloc(bytes);
  VirtualBuffer* ax = rt.malloc(bytes);
  VirtualBuffer* ay = rt.malloc(bytes);
  VirtualBuffer* az = rt.malloc(bytes);
  VirtualBuffer* ms = rt.malloc(bytes);
  rt.memcpy(px, s.posx, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(py, s.posy, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(pz, s.posz, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vx, s.velx, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vy, s.vely, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(vz, s.velz, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(ms, s.mass, bytes, MemcpyKind::HostToDevice);

  Dim3 grid{ceilBlocks(n, kBlock1D), 1, 1};
  Dim3 block{kBlock1D, 1, 1};
  for (int it = 0; it < iterations; ++it) {
    LaunchArg fArgs[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(px),
                         LaunchArg::ofBuffer(py), LaunchArg::ofBuffer(pz),
                         LaunchArg::ofBuffer(ms), LaunchArg::ofBuffer(ax),
                         LaunchArg::ofBuffer(ay), LaunchArg::ofBuffer(az)};
    rt.launch("nbody_forces", grid, block, fArgs);
    LaunchArg uArgs[] = {LaunchArg::ofInt(n), LaunchArg::ofFloat(kNBodyDt),
                         LaunchArg::ofBuffer(px), LaunchArg::ofBuffer(py),
                         LaunchArg::ofBuffer(pz), LaunchArg::ofBuffer(vx),
                         LaunchArg::ofBuffer(vy), LaunchArg::ofBuffer(vz),
                         LaunchArg::ofBuffer(ax), LaunchArg::ofBuffer(ay),
                         LaunchArg::ofBuffer(az)};
    rt.launch("nbody_update", grid, block, uArgs);
  }
  rt.memcpy(s.posx, px, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(s.posy, py, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(s.posz, pz, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(s.velx, vx, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(s.vely, vy, bytes, MemcpyKind::DeviceToHost);
  rt.memcpy(s.velz, vz, bytes, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  for (VirtualBuffer* b : {px, py, pz, vx, vy, vz, ax, ay, az, ms}) rt.free(b);
}

void referenceNBody(Machine& m, i64 n, int iterations, const NBodyState& s) {
  const i64 bytes = n * kElem;
  DevBuffer px = m.alloc(0, bytes), py = m.alloc(0, bytes), pz = m.alloc(0, bytes);
  DevBuffer vx = m.alloc(0, bytes), vy = m.alloc(0, bytes), vz = m.alloc(0, bytes);
  DevBuffer ax = m.alloc(0, bytes), ay = m.alloc(0, bytes), az = m.alloc(0, bytes);
  DevBuffer ms = m.alloc(0, bytes);
  m.copyHostToDevice(px, 0, s.posx, bytes);
  m.copyHostToDevice(py, 0, s.posy, bytes);
  m.copyHostToDevice(pz, 0, s.posz, bytes);
  m.copyHostToDevice(vx, 0, s.velx, bytes);
  m.copyHostToDevice(vy, 0, s.vely, bytes);
  m.copyHostToDevice(vz, 0, s.velz, bytes);
  m.copyHostToDevice(ms, 0, s.mass, bytes);
  m.synchronizeAll();  // cudaMemcpy is blocking

  ir::KernelPtr forces = buildNBodyForces();
  ir::KernelPtr update = buildNBodyUpdate();
  ir::LaunchConfig cfg{{ceilBlocks(n, kBlock1D), 1, 1}, {kBlock1D, 1, 1}};
  for (int it = 0; it < iterations; ++it) {
    KernelArg fArgs[] = {KernelArg::ofInt(n), KernelArg::ofBuffer(px),
                         KernelArg::ofBuffer(py), KernelArg::ofBuffer(pz),
                         KernelArg::ofBuffer(ms), KernelArg::ofBuffer(ax),
                         KernelArg::ofBuffer(ay), KernelArg::ofBuffer(az)};
    m.launchKernel(0, *forces, cfg, fArgs);
    KernelArg uArgs[] = {KernelArg::ofInt(n), KernelArg::ofFloat(kNBodyDt),
                         KernelArg::ofBuffer(px), KernelArg::ofBuffer(py),
                         KernelArg::ofBuffer(pz), KernelArg::ofBuffer(vx),
                         KernelArg::ofBuffer(vy), KernelArg::ofBuffer(vz),
                         KernelArg::ofBuffer(ax), KernelArg::ofBuffer(ay),
                         KernelArg::ofBuffer(az)};
    m.launchKernel(0, *update, cfg, uArgs);
  }
  m.synchronizeAll();
  m.copyDeviceToHost(s.posx, px, 0, bytes);
  m.copyDeviceToHost(s.posy, py, 0, bytes);
  m.copyDeviceToHost(s.posz, pz, 0, bytes);
  m.copyDeviceToHost(s.velx, vx, 0, bytes);
  m.copyDeviceToHost(s.vely, vy, 0, bytes);
  m.copyDeviceToHost(s.velz, vz, 0, bytes);
  m.synchronizeAll();
  for (DevBuffer b : {px, py, pz, vx, vy, vz, ax, ay, az, ms}) m.free(b);
}

// ===== Matmul ===================================================================

void runMatmul(Runtime& rt, i64 n, const double* a, const double* b, double* c) {
  const i64 bytes = n * n * kElem;
  VirtualBuffer* da = rt.malloc(bytes);
  VirtualBuffer* db = rt.malloc(bytes);
  VirtualBuffer* dc = rt.malloc(bytes);
  rt.memcpy(da, a, bytes, MemcpyKind::HostToDevice);
  rt.memcpy(db, b, bytes, MemcpyKind::HostToDevice);
  const i64 blocks = ceilBlocks(n, kBlock2D);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofBuffer(da),
                      LaunchArg::ofBuffer(db), LaunchArg::ofBuffer(dc)};
  rt.launch("matmul", Dim3{blocks, blocks, 1}, Dim3{kBlock2D, kBlock2D, 1}, args);
  rt.memcpy(c, dc, bytes, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  rt.free(da);
  rt.free(db);
  rt.free(dc);
}

void referenceMatmul(Machine& m, i64 n, const double* a, const double* b,
                     double* c) {
  const i64 bytes = n * n * kElem;
  DevBuffer da = m.alloc(0, bytes);
  DevBuffer db = m.alloc(0, bytes);
  DevBuffer dc = m.alloc(0, bytes);
  m.copyHostToDevice(da, 0, a, bytes);
  m.copyHostToDevice(db, 0, b, bytes);
  m.synchronizeAll();  // cudaMemcpy is blocking
  ir::KernelPtr k = buildMatmul();
  const i64 blocks = ceilBlocks(n, kBlock2D);
  KernelArg args[] = {KernelArg::ofInt(n), KernelArg::ofBuffer(da),
                      KernelArg::ofBuffer(db), KernelArg::ofBuffer(dc)};
  m.launchKernel(0, *k, {{blocks, blocks, 1}, {kBlock2D, kBlock2D, 1}}, args);
  m.synchronizeAll();
  m.copyDeviceToHost(c, dc, 0, bytes);
  m.synchronizeAll();
  m.free(da);
  m.free(db);
  m.free(dc);
}

// ===== CSR spmv =================================================================

void runSpmv(Runtime& rt, const CsrMatrix& a, const double* x, double* y) {
  VirtualBuffer* drp = rt.malloc((a.nrows + 1) * kElem);
  VirtualBuffer* dci = rt.malloc(a.nnz * kElem);
  VirtualBuffer* dva = rt.malloc(a.nnz * kElem);
  VirtualBuffer* dx = rt.malloc(a.ncols * kElem);
  VirtualBuffer* dy = rt.malloc(a.nrows * kElem);
  rt.memcpy(drp, a.rowPtr, (a.nrows + 1) * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dci, a.colIdx, a.nnz * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dva, a.vals, a.nnz * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dx, x, a.ncols * kElem, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(a.nrows),   LaunchArg::ofInt(a.ncols),
                      LaunchArg::ofInt(a.nnz),     LaunchArg::ofBuffer(drp),
                      LaunchArg::ofBuffer(dci),    LaunchArg::ofBuffer(dva),
                      LaunchArg::ofBuffer(dx),     LaunchArg::ofBuffer(dy)};
  rt.launch("spmv", Dim3{ceilBlocks(a.nrows, kBlock1D), 1, 1},
            Dim3{kBlock1D, 1, 1}, args);
  rt.memcpy(y, dy, a.nrows * kElem, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  for (VirtualBuffer* b : {drp, dci, dva, dx, dy}) rt.free(b);
}

// ===== BFS push sweep ===========================================================

void runBfsPush(Runtime& rt, i64 nnodes, i64 nedges, const i64* rowPtr,
                const i64* colIdx, i64 nfront, const i64* front,
                double* nextInOut) {
  VirtualBuffer* dfr = rt.malloc(nfront * kElem);
  VirtualBuffer* drp = rt.malloc((nnodes + 1) * kElem);
  VirtualBuffer* dci = rt.malloc(nedges * kElem);
  VirtualBuffer* dnx = rt.malloc(nnodes * kElem);
  rt.memcpy(dfr, front, nfront * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(drp, rowPtr, (nnodes + 1) * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dci, colIdx, nedges * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dnx, nextInOut, nnodes * kElem, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(nfront), LaunchArg::ofInt(nnodes),
                      LaunchArg::ofInt(nedges), LaunchArg::ofBuffer(dfr),
                      LaunchArg::ofBuffer(drp), LaunchArg::ofBuffer(dci),
                      LaunchArg::ofBuffer(dnx)};
  rt.launch("bfs_push", Dim3{ceilBlocks(nfront, kBlock1D), 1, 1},
            Dim3{kBlock1D, 1, 1}, args);
  rt.memcpy(nextInOut, dnx, nnodes * kElem, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  for (VirtualBuffer* b : {dfr, drp, dci, dnx}) rt.free(b);
}

// ===== Histogram ================================================================

void runHistogram(Runtime& rt, i64 n, i64 nbins, const i64* keys,
                  double* histInOut) {
  VirtualBuffer* dk = rt.malloc(n * kElem);
  VirtualBuffer* dh = rt.malloc(nbins * kElem);
  rt.memcpy(dk, keys, n * kElem, MemcpyKind::HostToDevice);
  rt.memcpy(dh, histInOut, nbins * kElem, MemcpyKind::HostToDevice);
  LaunchArg args[] = {LaunchArg::ofInt(n), LaunchArg::ofInt(nbins),
                      LaunchArg::ofBuffer(dk), LaunchArg::ofBuffer(dh)};
  rt.launch("histogram", Dim3{ceilBlocks(n, kBlock1D), 1, 1},
            Dim3{kBlock1D, 1, 1}, args);
  rt.memcpy(histInOut, dh, nbins * kElem, MemcpyKind::DeviceToHost);
  rt.deviceSynchronize();
  rt.free(dk);
  rt.free(dh);
}

}  // namespace polypart::apps
