// Extension bench: topology-aware transfer scheduling (rt/transfer_plan.h;
// DESIGN.md "Transfer plan").
//
// Measures the partitioned runtime with RuntimeConfig::transferScheduling
// off (the paper's issue-on-discovery behaviour, Section 8.3) and on, for
// three workloads that isolate the scheduler's mechanisms:
//
//   - halo: a 1-D shared-read stencil whose reads reach +-1.25 partition
//     widths, so each GPU's windows land at quarter-band offsets inside its
//     neighbours' bands.  The sharer ranges recorded for earlier GPUs
//     fragment the tracker walk of later ones: a single read window comes
//     back as several adjacent same-(src, dst) segments, which the plan
//     merges back into one copy — fewer peerCopies, fewer per-copy API and
//     link latencies, lower modeled time.
//   - bcast: every GPU folds the same coefficient table owned by GPU 0 —
//     the oversubscribed one-to-many read the plan chains through fresh
//     replicas.  The owner's serial send queue becomes log-depth binomial
//     waves: same copy count, lower modeled time.
//   - matmul: the balanced all-to-all panel exchange, as a control.  Every
//     device sends and receives about equally, so the oversubscription gate
//     keeps copies direct and there is nothing adjacent to merge: the
//     scheduled issue order degenerates to the paper's, and both columns
//     should be near-identical.
//
// Molly (arXiv:1409.2088) motivates link-level batching of polyhedrally
// derived communication; modelPeerLinks adds per-link serialization to the
// machine model so the schedule shows up in the modeled time, not just in
// the copy counts.  Byte-for-byte functional equivalence of the two columns
// is proven separately by tests/transfer_plan_test.cpp.

#include "analysis/analyze.h"
#include "bench/bench_util.h"
#include "ir/builder.h"

namespace {

using namespace polypart;
using ir::fconst;
using ir::ge;
using ir::iconst;
using ir::land;
using ir::lt;

/// out[x] = in[x - h] + in[x] + in[x + h] on the interior; the wide offset
/// h (1.25 partition widths in main) is what makes the read windows of
/// neighbouring GPUs overlap at quarter-band granularity.
ir::Module buildHaloModule(i64 h) {
  ir::KernelBuilder b("halo");
  auto n = b.scalar("n", ir::Type::I64);
  auto in = b.array("in", ir::Type::F64, {n});
  auto out = b.array("out", ir::Type::F64, {n});
  auto x = b.let("x", b.globalId(ir::Axis::X));
  b.iff(lt(x, n), [&] {
    b.iff(
        land(ge(x, iconst(h)), lt(x, n - iconst(h))),
        [&] {
          auto acc = b.let("acc", b.load(in, x - iconst(h)));
          b.assign(acc, acc + b.load(in, x));
          b.assign(acc, acc + b.load(in, x + iconst(h)));
          b.store(out, x, acc);
        },
        [&] { b.store(out, x, fconst(0.0)); });
  });
  ir::Module mod;
  mod.addKernel(b.build());
  return mod;
}

/// out[x] = in[x] + sum_{k < kTable} w[k]: every GPU reads the same table
/// prefix, which H2D's linear distribution places entirely on GPU 0.
constexpr i64 kTable = 8192;  // 64 KB broadcast payload

ir::Module buildBcastModule() {
  ir::KernelBuilder b("bcast");
  auto n = b.scalar("n", ir::Type::I64);
  auto m = b.scalar("m", ir::Type::I64);
  auto in = b.array("in", ir::Type::F64, {n});
  auto w = b.array("w", ir::Type::F64, {m});
  auto out = b.array("out", ir::Type::F64, {n});
  auto x = b.let("x", b.globalId(ir::Axis::X));
  b.iff(lt(x, n), [&] {
    auto acc = b.let("acc", b.load(in, x));
    b.forLoop("k", iconst(0), iconst(kTable),
              [&](ir::ExprPtr k) { b.assign(acc, acc + b.load(w, k)); });
    b.store(out, x, acc);
  });
  ir::Module mod;
  mod.addKernel(b.build());
  return mod;
}

rt::RuntimeConfig makeConfig(int gpus, bool sched) {
  rt::RuntimeConfig rc;
  rc.numGpus = gpus;
  rc.mode = sim::ExecutionMode::TimingOnly;
  rc.transferScheduling = sched;
  // Shared-copy tracking supplies the replica bookkeeping broadcast chaining
  // needs (and the sharer ranges that fragment the halo walk); it is
  // identical in both columns.
  rc.trackSharedCopies = true;
  rc.machine.modelPeerLinks = true;
  rc.tracer = polypart::benchutil::envTracer();
  return rc;
}

void printRow(const char* name, int gpus, bool sched, rt::Runtime& rt) {
  std::printf(
      "  %-8s %4d %6s  %12.4f  %12.4f  %10lld  %10lld  %8lld  %10.1f  "
      "%10.1f\n",
      name, gpus, sched ? "on" : "off", rt.elapsedSeconds(),
      rt.machineStats().transferBusySeconds,
      static_cast<long long>(rt.stats().peerCopies),
      static_cast<long long>(rt.stats().transfersMerged),
      static_cast<long long>(rt.stats().broadcastChains),
      static_cast<double>(rt.stats().bytesSavedByDedup) / 1e3,
      static_cast<double>(rt.machineStats().bytesPeerToPeer) / 1e6);
  std::fflush(stdout);
  json::Value& row = polypart::benchutil::benchRow();
  row["benchmark"] = name;
  row["gpus"] = gpus;
  row["scheduling"] = sched;
  row["simSeconds"] = rt.elapsedSeconds();
  polypart::benchutil::addCounters(row, rt.stats(), rt.machineStats());
}

constexpr i64 kElems = i64{1} << 20;
constexpr i64 kBlock = 256;

void runHalo(int gpus, bool sched, int iters) {
  const i64 band = kElems / gpus;
  const i64 h = band + band / 4;
  ir::Module mod = buildHaloModule(h);
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  rt::Runtime rt(makeConfig(gpus, sched), model, mod);
  const i64 bytes = kElems * 8;
  rt::VirtualBuffer* a = rt.malloc(bytes);
  rt::VirtualBuffer* c = rt.malloc(bytes);
  rt.memcpy(a, nullptr, bytes, rt::MemcpyKind::HostToDevice);
  rt::LaunchArg fwd[] = {rt::LaunchArg::ofInt(kElems),
                         rt::LaunchArg::ofBuffer(a),
                         rt::LaunchArg::ofBuffer(c)};
  rt::LaunchArg bwd[] = {rt::LaunchArg::ofInt(kElems),
                         rt::LaunchArg::ofBuffer(c),
                         rt::LaunchArg::ofBuffer(a)};
  for (int i = 0; i < iters; ++i)
    rt.launch("halo", ir::Dim3{kElems / kBlock, 1, 1}, ir::Dim3{kBlock, 1, 1},
              i % 2 ? bwd : fwd);
  rt.deviceSynchronize();
  printRow("halo", gpus, sched, rt);
}

void runBcast(int gpus, bool sched) {
  // Table sized so GPU 0's linear-distribution band covers the whole read
  // window even at the widest GPU count: the read is a true broadcast.
  const i64 tableElems = kTable * 32;
  ir::Module mod = buildBcastModule();
  analysis::ApplicationModel model = analysis::analyzeModule(mod);
  rt::Runtime rt(makeConfig(gpus, sched), model, mod);
  rt::VirtualBuffer* in = rt.malloc(kElems * 8);
  rt::VirtualBuffer* w = rt.malloc(tableElems * 8);
  rt::VirtualBuffer* out = rt.malloc(kElems * 8);
  rt.memcpy(in, nullptr, kElems * 8, rt::MemcpyKind::HostToDevice);
  rt.memcpy(w, nullptr, tableElems * 8, rt::MemcpyKind::HostToDevice);
  rt::LaunchArg args[] = {
      rt::LaunchArg::ofInt(kElems), rt::LaunchArg::ofInt(tableElems),
      rt::LaunchArg::ofBuffer(in), rt::LaunchArg::ofBuffer(w),
      rt::LaunchArg::ofBuffer(out)};
  rt.launch("bcast", ir::Dim3{kElems / kBlock, 1, 1}, ir::Dim3{kBlock, 1, 1},
            args);
  rt.deviceSynchronize();
  printRow("bcast", gpus, sched, rt);
}

void runMatmulBench(int gpus, bool sched) {
  rt::Runtime rt(makeConfig(gpus, sched), polypart::benchutil::model(),
                 polypart::benchutil::module());
  apps::runMatmul(rt, 1024, nullptr, nullptr, nullptr);
  printRow("matmul", gpus, sched, rt);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace polypart::benchutil;

  openBenchReport("transfer_scheduler");
  printHeader("Extension: topology-aware transfer scheduling",
              "beyond the paper; Section 8.3 issues copies on discovery");

  // Ping-pong sweep length for the halo stencil (8 = full run).
  const double scale = parseItersScale(argc, argv);
  int haloIters = static_cast<int>(8 * scale);
  if (haloIters < 1) haloIters = 1;

  std::printf("\n  %-8s %4s %6s  %12s  %12s  %10s  %10s  %8s  %10s  %10s\n",
              "Bench", "GPUs", "sched", "sim time [s]", "xfer busy[s]",
              "peerCopies", "merged", "chains", "saved [KB]", "p2p [MB]");

  for (int g : {8, 16, 32})
    for (bool sched : {false, true}) runHalo(g, sched, haloIters);
  for (int g : {8, 16, 32})
    for (bool sched : {false, true}) runBcast(g, sched);
  for (int g : {8, 16, 32})
    for (bool sched : {false, true}) runMatmulBench(g, sched);

  std::printf(
      "\nExpectation: halo (shared-read stencil) -> sharer-fragmented\n"
      "segments merge per (src, dst) link: fewer peerCopies and lower sim\n"
      "time.  bcast -> same copy count but binomial chains replace the\n"
      "owner's serial send queue: chains > 0, lower sim time.  matmul's\n"
      "balanced all-to-all is left direct (control: identical copies, time\n"
      "within the cost of deferring issue to the end of the query phase).\n"
      "Functional byte placement is identical in every column\n"
      "(tests/transfer_plan_test.cpp).\n");
  return 0;
}
