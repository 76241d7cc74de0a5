// Whole-pipeline fuzzing: randomly generated affine kernels are analyzed,
// partitioned, and executed on multiple simulated GPUs; the result must be
// bit-identical to direct single-device execution of the original kernel.
//
// This exercises every layer at once — polynomial extraction, DNF guards,
// delinearization, FM projections, injectivity, enumerator generation,
// coalescing, tracker coherence, and the launch orchestration — on shapes
// no hand-written test enumerates.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "fuzz_kernels.h"
#include "fuzz_util.h"
#include "ir/interp.h"
#include "rt/runtime.h"

namespace polypart::rt {
namespace {

using fuzz::GeneratedKernel;
using fuzz::generate;

TEST(PipelineFuzz, RandomAffineKernelsPartitionExactly) {
  // One RNG drives the whole sweep, so each case's seed is reseeded per
  // iteration to stay individually replayable via POLYPART_FUZZ_SEED.
  const int iters = fuzz::caseCount(25);
  int accepted = 0;
  for (int iter = 0; iter < iters; ++iter) {
    fuzz::SeededRng rng(fuzz::seedFor(4242, iter));
    SCOPED_TRACE(rng.replay());
    GeneratedKernel g = generate(rng, iter);
    ir::Module mod;
    mod.addKernel(g.kernel);
    analysis::ApplicationModel model;
    try {
      model = analysis::analyzeModule(mod);
    } catch (const UnsupportedKernelError& e) {
      ADD_FAILURE() << "generated kernel rejected: " << e.what() << "\n"
                    << g.kernel->str();
      continue;
    }
    ++accepted;

    const i64 n = g.is2d ? 21 : 333;
    const i64 elems = g.is2d ? n * n : n;
    std::vector<std::vector<double>> inputs(
        static_cast<std::size_t>(g.numInputs));
    for (auto& buf : inputs) {
      buf.resize(static_cast<std::size_t>(elems));
      for (auto& v : buf) v = rng.uniform() * 4 - 2;
    }

    // Ground truth: single-device interpretation of the original kernel.
    ir::LaunchConfig cfg = g.is2d
                               ? ir::LaunchConfig{{(n + 4) / 5, (n + 4) / 5, 1}, {5, 5, 1}}
                               : ir::LaunchConfig{{(n + 63) / 64, 1, 1}, {64, 1, 1}};
    std::vector<double> truth(static_cast<std::size_t>(elems), 99.0);
    {
      std::vector<ir::ArgValue> args;
      args.push_back(ir::ArgValue::ofInt(n));
      for (auto& buf : inputs)
        args.push_back(ir::ArgValue::ofBuffer(buf.data(), elems));
      args.push_back(ir::ArgValue::ofBuffer(truth.data(), elems));
      ir::execute(*g.kernel, cfg, args);
    }

    // Partitioned execution on several GPU counts.
    for (int gpus : {2, 5}) {
      RuntimeConfig rc;
      rc.numGpus = gpus;
      rc.mode = sim::ExecutionMode::Functional;
      Runtime rt(rc, model, mod);
      std::vector<VirtualBuffer*> bufs;
      for (auto& buf : inputs) {
        VirtualBuffer* vb = rt.malloc(elems * 8);
        rt.memcpy(vb, buf.data(), elems * 8, MemcpyKind::HostToDevice);
        bufs.push_back(vb);
      }
      VirtualBuffer* vout = rt.malloc(elems * 8);
      std::vector<LaunchArg> args;
      args.push_back(LaunchArg::ofInt(n));
      for (VirtualBuffer* vb : bufs) args.push_back(LaunchArg::ofBuffer(vb));
      args.push_back(LaunchArg::ofBuffer(vout));
      rt.launch(g.kernel->name(), cfg.grid, cfg.block, args);
      std::vector<double> got(static_cast<std::size_t>(elems), -99.0);
      rt.memcpy(got.data(), vout, elems * 8, MemcpyKind::DeviceToHost);
      ASSERT_EQ(got, truth) << "kernel:\n" << g.kernel->str() << "\ngpus " << gpus;
    }
  }
  EXPECT_EQ(accepted, iters);
}

/// One generated kernel's launch stream: the kernel, its device buffers, its
/// host-side inputs, and the single-device truth of its whole stream.
struct KernelStream {
  GeneratedKernel g;
  i64 n = 0;
  i64 elems = 0;
  ir::LaunchConfig cfg;
  int launches = 0;
  std::vector<std::vector<double>> inputs;
  std::vector<double> truth;
  std::vector<VirtualBuffer*> bufs;  // inputs... then the output buffer
};

TEST(PipelineFuzz, InterleavedStreamsMatchSerialExecution) {
  // Random interleaved launch streams: each stream runs one generated
  // kernel on buffers no other stream touches; a randomized round-robin
  // interleaves their launches on one shared runtime across cache settings
  // and transfer scheduling, with dataflow planning and the enumerator tier
  // drawn from the seed.  Every stream's gathered output must be
  // bit-identical to single-device interpretation of its own stream.
  const int iters = fuzz::caseCount(6);
  for (int iter = 0; iter < iters; ++iter) {
    fuzz::SeededRng rng(fuzz::seedFor(9393, iter));
    SCOPED_TRACE(rng.replay());

    // Generate one kernel per stream; regenerate on the rare shapes the
    // analyzer cannot accept is unnecessary (generate() only emits supported
    // kernels), but keep module assembly shared across streams.
    const int numStreams = 2 + static_cast<int>(rng.next() % 2);  // 2..3
    ir::Module mod;
    std::vector<KernelStream> streams(static_cast<std::size_t>(numStreams));
    for (int t = 0; t < numStreams; ++t) {
      KernelStream& s = streams[static_cast<std::size_t>(t)];
      s.g = generate(rng, iter * 7 + t);
      mod.addKernel(s.g.kernel);
      s.n = s.g.is2d ? 17 : 257;
      s.elems = s.g.is2d ? s.n * s.n : s.n;
      s.cfg = s.g.is2d
                  ? ir::LaunchConfig{{(s.n + 4) / 5, (s.n + 4) / 5, 1}, {5, 5, 1}}
                  : ir::LaunchConfig{{(s.n + 63) / 64, 1, 1}, {64, 1, 1}};
      s.inputs.resize(static_cast<std::size_t>(s.g.numInputs));
      for (auto& buf : s.inputs) {
        buf.resize(static_cast<std::size_t>(s.elems));
        for (auto& v : buf) v = rng.uniform() * 4 - 2;
      }
    }
    analysis::ApplicationModel model;
    try {
      model = analysis::analyzeModule(mod);
    } catch (const UnsupportedKernelError& e) {
      ADD_FAILURE() << "generated kernel rejected: " << e.what();
      continue;
    }

    // The interleave order and per-stream launch counts are drawn once and
    // replayed identically under every configuration.
    std::vector<int> order;
    for (int t = 0; t < numStreams; ++t) {
      KernelStream& s = streams[static_cast<std::size_t>(t)];
      s.launches = 2 + static_cast<int>(rng.next() % 3);  // 2..4
      for (int l = 0; l < s.launches; ++l) order.push_back(t);
    }
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next() % i]);
    // Dataflow planning and the enumerator tier are drawn per case too.
    const bool planning = rng.next() % 2 != 0;
    const codegen::EnumTier tier = rng.next() % 2 != 0
                                       ? codegen::EnumTier::Specialized
                                       : codegen::EnumTier::Interpret;

    // Ground truth per stream: its launches on one device, uninterleaved.
    for (KernelStream& s : streams) {
      s.truth.assign(static_cast<std::size_t>(s.elems), 99.0);
      std::vector<ir::ArgValue> args;
      args.push_back(ir::ArgValue::ofInt(s.n));
      for (auto& buf : s.inputs)
        args.push_back(ir::ArgValue::ofBuffer(buf.data(), s.elems));
      args.push_back(ir::ArgValue::ofBuffer(s.truth.data(), s.elems));
      for (int l = 0; l < s.launches; ++l) ir::execute(*s.g.kernel, s.cfg, args);
    }

    auto run = [&](bool cache, bool xferSched) {
      SCOPED_TRACE("cache " + std::to_string(cache) + " xferSched " +
                   std::to_string(xferSched) + " planning " +
                   std::to_string(planning) + " tier " +
                   codegen::enumTierName(tier));
      RuntimeConfig rc;
      rc.numGpus = 3;
      rc.mode = sim::ExecutionMode::Functional;
      rc.enableEnumerationCache = cache;
      rc.transferScheduling = xferSched;
      rc.dataflowPlanning = planning;
      rc.enumeratorTier = tier;
      Runtime rt(rc, model, mod);
      for (KernelStream& s : streams) {
        s.bufs.clear();
        for (auto& buf : s.inputs) {
          VirtualBuffer* vb = rt.malloc(s.elems * 8);
          rt.memcpy(vb, buf.data(), s.elems * 8, MemcpyKind::HostToDevice);
          s.bufs.push_back(vb);
        }
        s.bufs.push_back(rt.malloc(s.elems * 8));
      }
      for (int t : order) {
        KernelStream& s = streams[static_cast<std::size_t>(t)];
        std::vector<LaunchArg> args;
        args.push_back(LaunchArg::ofInt(s.n));
        for (VirtualBuffer* vb : s.bufs) args.push_back(LaunchArg::ofBuffer(vb));
        rt.launch(s.g.kernel->name(), s.cfg.grid, s.cfg.block, args);
      }
      EXPECT_EQ(rt.stats().launches, static_cast<i64>(order.size()));
      for (int t = 0; t < numStreams; ++t) {
        KernelStream& s = streams[static_cast<std::size_t>(t)];
        std::vector<double> got(static_cast<std::size_t>(s.elems), -99.0);
        rt.memcpy(got.data(), s.bufs.back(), s.elems * 8,
                  MemcpyKind::DeviceToHost);
        ASSERT_EQ(got, s.truth) << "stream " << t << " kernel:\n"
                                << s.g.kernel->str();
      }
    };
    for (bool cache : {false, true})
      for (bool xferSched : {false, true}) run(cache, xferSched);
  }
}

}  // namespace
}  // namespace polypart::rt
