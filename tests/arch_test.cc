// Unit tests for src/arch: caches, TLB, branch predictor, and the
// out-of-order core's timing behaviour (IPC, dependencies, fetch gating).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "arch/branch_predictor.h"
#include "arch/cache.h"
#include "arch/core.h"
#include "arch/tlb.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

namespace hydra::arch {
namespace {

// ------------------------------------------------------------------ cache
TEST(Cache, HitAfterMiss) {
  Cache c({1024, 64, 2});
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1030));  // same 64 B line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, 8 sets of 64 B lines: three lines mapping to the same set.
  Cache c({1024, 64, 2});
  const std::uint64_t set_stride = 64 * c.num_sets();
  const std::uint64_t a = 0x0;
  const std::uint64_t b = a + set_stride;
  const std::uint64_t d = a + 2 * set_stride;
  c.access(a);
  c.access(b);
  c.access(a);      // a is now MRU
  c.access(d);      // evicts b
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(Cache, CapacityWorks) {
  Cache c({64 * 1024, 64, 2});
  // Touch exactly the capacity: all resident afterwards.
  for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) c.access(addr);
  c.reset_stats();
  for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 64) c.access(addr);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, ThrashingBeyondCapacityMisses) {
  Cache c({1024, 64, 2});
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t addr = 0; addr < 4096; addr += 64) c.access(addr);
  }
  // Working set 4x capacity with LRU: every access misses.
  EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache({1024, 60, 2}), std::invalid_argument);
  EXPECT_THROW(Cache({1024, 64, 0}), std::invalid_argument);
  EXPECT_THROW(Cache({1000, 64, 3}), std::invalid_argument);
  EXPECT_NO_THROW(Cache({255 * 64, 64, 255}));
  EXPECT_THROW(Cache({256 * 64, 64, 256}), std::invalid_argument);
}

// ------------------------------------------------------------------- tlb
TEST(Tlb, HitsWithinPage) {
  Tlb tlb(4, 8192);
  EXPECT_FALSE(tlb.access(0x10000));
  EXPECT_TRUE(tlb.access(0x10100));  // same page
  EXPECT_FALSE(tlb.access(0x20000));
}

TEST(Tlb, LruReplacement) {
  Tlb tlb(2, 8192);
  tlb.access(0x0 << 13);
  tlb.access(0x1ULL << 13);
  tlb.access(0x0 << 13);        // page 0 MRU
  tlb.access(0x2ULL << 13);     // evicts page 1
  EXPECT_TRUE(tlb.access(0x0 << 13));
  EXPECT_FALSE(tlb.access(0x1ULL << 13));
}

TEST(Tlb, RejectsBadConfig) {
  EXPECT_THROW(Tlb(0, 8192), std::invalid_argument);
  EXPECT_THROW(Tlb(4, 1000), std::invalid_argument);
}

// -------------------------------------------------------------- predictor
TEST(Gshare, LearnsAlwaysTaken) {
  GsharePredictor bp(10);
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    if (bp.predict(0x4000) == true) ++correct;
    bp.update(0x4000, true);
  }
  EXPECT_GT(correct, 190);
}

TEST(Gshare, LearnsAlternatingPatternViaHistory) {
  GsharePredictor bp(10);
  bool taken = false;
  int correct = 0;
  for (int i = 0; i < 400; ++i) {
    taken = !taken;
    if (bp.predict(0x4000) == taken) ++correct;
    bp.update(0x4000, taken);
  }
  // After warm-up the global history disambiguates the alternation.
  EXPECT_GT(correct, 300);
}

TEST(Gshare, RandomBranchNearChance) {
  GsharePredictor bp(12);
  std::uint64_t lcg = 12345;
  int correct = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const bool taken = (lcg >> 62) & 1;
    if (bp.predict(0x8000) == taken) ++correct;
    bp.update(0x8000, taken);
  }
  EXPECT_GT(correct, n * 0.40);
  EXPECT_LT(correct, n * 0.60);
}

TEST(Gshare, RejectsBadIndexBits) {
  EXPECT_THROW(GsharePredictor(0), std::invalid_argument);
  EXPECT_THROW(GsharePredictor(30), std::invalid_argument);
}

// ----------------------------------------------------------------- core
/// Trace of independent single-source ALU ops: the core should sustain
/// close to its fetch width.
class IndependentAluTrace final : public TraceSource {
 public:
  MicroOp next() override {
    MicroOp op;
    op.cls = OpClass::kIntAlu;
    op.num_srcs = 1;
    op.src_dist[0] = 1000;  // far beyond the window: always ready
    op.pc = pc_;
    pc_ += 4;
    if (pc_ >= 0x1000 + 16 * 1024) pc_ = 0x1000;
    return op;
  }

 private:
  std::uint64_t pc_ = 0x1000;
};

/// Fully serial dependency chain: IPC limited to 1 / latency.
class SerialChainTrace final : public TraceSource {
 public:
  explicit SerialChainTrace(OpClass cls) : cls_(cls) {}
  MicroOp next() override {
    MicroOp op;
    op.cls = cls_;
    op.num_srcs = 1;
    op.src_dist[0] = 1;  // depends on the immediately preceding op
    op.pc = pc_;
    pc_ += 4;
    if (pc_ >= 0x1000 + 16 * 1024) pc_ = 0x1000;
    return op;
  }

 private:
  OpClass cls_;
  std::uint64_t pc_ = 0x1000;
};

CoreConfig test_config() {
  CoreConfig cfg;
  return cfg;
}

/// Warm caches/predictors first, then measure IPC over a window — cold
/// compulsory misses otherwise dominate these short runs.
double run_ipc(Core& core, int cycles, int warmup = 40'000) {
  for (int i = 0; i < warmup; ++i) core.cycle();
  const std::uint64_t c0 = core.cycles();
  const std::uint64_t i0 = core.committed();
  for (int i = 0; i < cycles; ++i) core.cycle();
  return static_cast<double>(core.committed() - i0) /
         static_cast<double>(core.cycles() - c0);
}

TEST(Core, IndependentOpsReachNearFetchWidth) {
  IndependentAluTrace trace;
  const CoreConfig cfg = test_config();
  Core core(cfg, trace);
  const double ipc = run_ipc(core, 20'000);
  EXPECT_GT(ipc, 0.9 * cfg.fetch_width);
  EXPECT_LE(ipc, cfg.fetch_width + 0.01);
}

TEST(Core, SerialChainBoundByLatency) {
  SerialChainTrace trace(OpClass::kIntAlu);
  Core core(test_config(), trace);
  const double ipc = run_ipc(core, 20'000);
  // 1-cycle ALU chain: at most ~1 IPC.
  EXPECT_LT(ipc, 1.1);
  EXPECT_GT(ipc, 0.7);
}

TEST(Core, SerialMulChainMuchSlower) {
  SerialChainTrace trace(OpClass::kIntMul);
  Core core(test_config(), trace);
  const double ipc = run_ipc(core, 30'000);
  // 7-cycle multiply chain: ~1/7 IPC.
  EXPECT_LT(ipc, 0.2);
}

TEST(Core, MildFetchGatingHiddenByIlp) {
  // A workload with IPC well below fetch width should barely notice
  // gating 1 in 4 fetch cycles — the ILP-hiding effect the hybrid DTM
  // policy exploits.
  SerialChainTrace trace(OpClass::kIntAlu);  // ~1 IPC workload
  Core gated_core(test_config(), trace);
  gated_core.set_fetch_gate_fraction(0.25);
  const double ipc_gated = run_ipc(gated_core, 20'000);
  EXPECT_GT(ipc_gated, 0.7);  // essentially unchanged
}

TEST(Core, HarshFetchGatingStarvesPipeline) {
  IndependentAluTrace trace;
  const CoreConfig cfg = test_config();

  IndependentAluTrace t2;
  Core harsh(cfg, t2);
  harsh.set_fetch_gate_fraction(0.75);
  const double ipc_harsh = run_ipc(harsh, 20'000);
  // Effective fetch bandwidth = 4 * 0.25 = 1.
  EXPECT_LT(ipc_harsh, 1.2);
  EXPECT_GT(ipc_harsh, 0.8);
}

TEST(Core, FetchGatingFractionScalesThroughputProportionally) {
  // For a fetch-bound workload IPC should track (1 - g) * width.
  for (double g : {0.0, 0.25, 0.5}) {
    IndependentAluTrace trace;
    Core core(test_config(), trace);
    core.set_fetch_gate_fraction(g);
    const double ipc = run_ipc(core, 20'000);
    EXPECT_NEAR(ipc, 4.0 * (1.0 - g), 0.4) << "g=" << g;
  }
}

TEST(Core, GateFractionValidation) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  EXPECT_THROW(core.set_fetch_gate_fraction(-0.1), std::invalid_argument);
  EXPECT_THROW(core.set_fetch_gate_fraction(1.5), std::invalid_argument);
  core.set_fetch_gate_fraction(1.0);  // allowed: fetch fully gated
  for (int i = 0; i < 1000; ++i) core.cycle();
  // With fetch fully gated nothing new commits once the window drains.
  const std::uint64_t committed = core.committed();
  for (int i = 0; i < 1000; ++i) core.cycle();
  EXPECT_EQ(core.committed(), committed);
}

TEST(Core, IdleCyclesAdvanceTimeWithoutWork) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  for (int i = 0; i < 100; ++i) core.idle_cycle(true);
  EXPECT_EQ(core.cycles(), 100u);
  EXPECT_EQ(core.committed(), 0u);
  const ActivityFrame f = core.take_interval_activity();
  EXPECT_DOUBLE_EQ(f.cycles, 100.0);
  EXPECT_DOUBLE_EQ(f.clocked_cycles, 100.0);
}

TEST(Core, ClockGatedIdleCyclesAreUnclocked) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  for (int i = 0; i < 60; ++i) core.idle_cycle(false);
  for (int i = 0; i < 40; ++i) core.idle_cycle(true);
  const ActivityFrame f = core.take_interval_activity();
  EXPECT_DOUBLE_EQ(f.cycles, 100.0);
  EXPECT_DOUBLE_EQ(f.clocked_cycles, 40.0);
}

TEST(Core, ActivityCountersTrackExecution) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  for (int i = 0; i < 5000; ++i) core.cycle();
  const ActivityFrame f = core.take_interval_activity();
  using floorplan::BlockId;
  EXPECT_GT(f.count(BlockId::kICache), 0.0);
  EXPECT_GT(f.count(BlockId::kIntMap), 0.0);
  EXPECT_GT(f.count(BlockId::kIntQ), 0.0);
  EXPECT_GT(f.count(BlockId::kIntReg), 0.0);
  EXPECT_GT(f.count(BlockId::kIntExec), 0.0);
  // Integer-only trace: no FP activity.
  EXPECT_DOUBLE_EQ(f.count(BlockId::kFPAdd), 0.0);
  EXPECT_DOUBLE_EQ(f.count(BlockId::kFPMul), 0.0);
}

TEST(Core, TakeIntervalActivityClears) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  for (int i = 0; i < 100; ++i) core.cycle();
  core.take_interval_activity();
  const ActivityFrame f = core.interval_activity();
  EXPECT_DOUBLE_EQ(f.cycles, 0.0);
  EXPECT_DOUBLE_EQ(f.count(floorplan::BlockId::kIntExec), 0.0);
}

TEST(Core, SlowerFrequencyLengthensMemoryLatencyInCycles) {
  // A pointer-chase style load chain that misses everywhere is memory
  // bound; lowering the clock reduces the miss penalty in cycles and so
  // *raises* IPC — the effect that makes DVS cheaper than its frequency
  // ratio suggests for memory-bound codes.
  class StreamLoadTrace final : public TraceSource {
   public:
    MicroOp next() override {
      MicroOp op;
      op.cls = OpClass::kLoad;
      op.num_srcs = 1;
      op.src_dist[0] = 1;  // serial chain through memory
      op.pc = 0x1000;
      addr_ += 4096;  // new page+line every time: always misses
      op.mem_addr = addr_;
      return op;
    }

   private:
    std::uint64_t addr_ = 0x4000'0000;
  };

  StreamLoadTrace t1;
  Core fast(test_config(), t1);
  fast.set_frequency(3.0e9);
  const double ipc_fast = run_ipc(fast, 40'000);

  StreamLoadTrace t2;
  Core slow(test_config(), t2);
  slow.set_frequency(1.0e9);
  const double ipc_slow = run_ipc(slow, 40'000);

  EXPECT_GT(ipc_slow, ipc_fast * 1.5);
}

TEST(Core, MispredictsDetectedAndPenalised) {
  // Random branches mixed into independent ALU work lower IPC via
  // redirect stalls.
  class RandomBranchTrace final : public TraceSource {
   public:
    MicroOp next() override {
      MicroOp op;
      lcg_ = lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((count_++ % 5) == 0) {
        op.cls = OpClass::kBranch;
        op.num_srcs = 1;
        op.src_dist[0] = 100;
        op.branch_taken = (lcg_ >> 62) & 1;
      } else {
        op.cls = OpClass::kIntAlu;
        op.num_srcs = 1;
        op.src_dist[0] = 100;
      }
      op.pc = 0x1000 + (count_ % 1024) * 4;
      return op;
    }

   private:
    std::uint64_t lcg_ = 99;
    std::uint64_t count_ = 0;
  };

  RandomBranchTrace trace;
  Core core(test_config(), trace);
  const double ipc = run_ipc(core, 30'000);
  EXPECT_GT(core.stats().branches, 0u);
  EXPECT_GT(core.stats().mispredict_rate(), 0.2);
  EXPECT_LT(ipc, 3.0);  // redirects hurt a fetch-bound stream

  IndependentAluTrace clean;
  Core ref(test_config(), clean);
  EXPECT_GT(run_ipc(ref, 30'000), ipc);
}

TEST(Core, DeterministicAcrossRuns) {
  auto run_once = [] {
    IndependentAluTrace trace;
    Core core(test_config(), trace);
    core.set_fetch_gate_fraction(0.3);
    for (int i = 0; i < 10'000; ++i) core.cycle();
    return core.committed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Core, RejectsBadConfig) {
  IndependentAluTrace trace;
  CoreConfig cfg;
  cfg.rob_entries = 0;
  EXPECT_THROW(Core(cfg, trace), std::invalid_argument);
  CoreConfig cfg2;
  cfg2.fetch_width = 0;
  EXPECT_THROW(Core(cfg2, trace), std::invalid_argument);
}

/// The bits of a frame: its events, then its two cycle counts.
std::vector<std::uint64_t> frame_bits(const ActivityFrame& f) {
  std::vector<std::uint64_t> bits;
  for (const double e : f.events) {
    bits.push_back(std::bit_cast<std::uint64_t>(e));
  }
  bits.push_back(std::bit_cast<std::uint64_t>(f.cycles));
  bits.push_back(std::bit_cast<std::uint64_t>(f.clocked_cycles));
  return bits;
}

// A core built unbound idles, changes its clock and gate duties, then
// binds: the pipeline it builds then is the one the bound constructor
// built, in the state idling left it, so every later bit matches. Run
// with gshare and with the tournament predictor plus MSHRs and store
// forwarding, at 9 GHz so a memory miss outlasts the issue wheel.
TEST(Core, LateBindingMatchesBoundConstruction) {
  for (const bool fidelity : {false, true}) {
    CoreConfig cfg;
    if (fidelity) {
      cfg.predictor = CoreConfig::Predictor::kTournament;
      cfg.mshr_entries = 4;
      cfg.store_forwarding = true;
    }
    const workload::WorkloadProfile profile =
        workload::spec2000_profile("gcc");
    workload::SyntheticTrace bound_trace(profile);
    workload::SyntheticTrace late_trace(profile);
    Core bound(cfg, bound_trace);
    Core late(cfg);
    std::vector<ActivityFrame> frames[2];
    Core* const cores[2] = {&bound, &late};
    for (int k = 0; k < 2; ++k) {
      Core& core = *cores[k];
      core.idle_cycles(5000, true);
      core.set_frequency(9.0e9);
      core.set_fetch_gate_fraction(0.3);
      core.set_issue_gate_fraction(0.2);
      core.idle_cycle(false);
      core.idle_cycles(300, false);
      frames[k].push_back(core.take_interval_activity());
    }
    late.set_trace(late_trace);
    for (int k = 0; k < 2; ++k) {
      Core& core = *cores[k];
      for (int segment = 0; segment < 12; ++segment) {
        for (int c = 0; c < 5000; ++c) core.cycle();
        frames[k].push_back(core.take_interval_activity());
        if (segment == 5) core.set_fetch_gate_fraction(0.0);
      }
    }

    const auto stats = [](const Core& core) {
      const CoreStats& s = core.stats();
      return std::array{s.committed,     s.cycles,        s.fetch_gated_cycles,
                        s.fetched,       s.branches,      s.mispredicts,
                        s.icache_misses, s.dcache_misses, s.l2_misses};
    };
    EXPECT_GT(bound.stats().l2_misses, 0u);
    EXPECT_EQ(stats(bound), stats(late));
    ASSERT_EQ(frames[0].size(), frames[1].size());
    for (std::size_t i = 0; i < frames[0].size(); ++i) {
      EXPECT_EQ(frame_bits(frames[0][i]), frame_bits(frames[1][i]))
          << "frame " << i << (fidelity ? " (fidelity)" : "");
    }
  }
}

TEST(Core, FrequencyValidation) {
  IndependentAluTrace trace;
  Core core(test_config(), trace);
  EXPECT_THROW(core.set_frequency(0.0), std::invalid_argument);
  EXPECT_THROW(core.set_frequency(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace hydra::arch
