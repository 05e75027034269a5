// Unit tests for src/workload: profile validation, generator statistics,
// determinism, phases, and the nine SPEC2000 profiles.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

namespace hydra::workload {
namespace {

using arch::MicroOp;
using arch::OpClass;

WorkloadProfile simple_profile() {
  WorkloadProfile p;
  p.name = "test";
  p.seed = 7;
  return p;
}

// ------------------------------------------------------------ validation
TEST(Profile, DefaultIsValid) {
  EXPECT_NO_THROW(simple_profile().validate());
}

TEST(Profile, RejectsBadMix) {
  WorkloadProfile p = simple_profile();
  p.frac_int_alu += 0.1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Profile, RejectsBadDependenceAndFootprints) {
  WorkloadProfile p = simple_profile();
  p.mean_dep_distance = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = simple_profile();
  p.inst_footprint = 100;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // At max_dep_distance 0 every op depended on itself and the core
  // never issued.
  for (const int max : {0, -1, -64}) {
    p = simple_profile();
    p.max_dep_distance = max;
    EXPECT_THROW(p.validate(), std::invalid_argument) << max;
  }
  p = simple_profile();
  p.max_dep_distance = 1;
  EXPECT_NO_THROW(p.validate());
  p.inst_footprint = 16 * 1024 * 1024;
  EXPECT_NO_THROW(p.validate());
  p.inst_footprint = 16 * 1024 * 1024 + 4;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = simple_profile();
  p.warm_access_fraction = 0.9;
  p.stream_access_fraction = 0.2;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Profile, RejectsBadPhase) {
  WorkloadProfile p = simple_profile();
  p.phases = {{0, 1.0, 1.0}};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.phases = {{1000, -1.0, 1.0}};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- generator
TEST(SyntheticTrace, Deterministic) {
  SyntheticTrace a(simple_profile());
  SyntheticTrace b(simple_profile());
  for (int i = 0; i < 10'000; ++i) {
    const MicroOp x = a.next();
    const MicroOp y = b.next();
    EXPECT_EQ(static_cast<int>(x.cls), static_cast<int>(y.cls));
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.mem_addr, y.mem_addr);
    EXPECT_EQ(x.branch_taken, y.branch_taken);
  }
}

TEST(SyntheticTrace, SeedChangesStream) {
  WorkloadProfile p2 = simple_profile();
  p2.seed = 8;
  SyntheticTrace a(simple_profile());
  SyntheticTrace b(p2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (static_cast<int>(a.next().cls) == static_cast<int>(b.next().cls)) {
      ++same;
    }
  }
  EXPECT_LT(same, 900);  // different programs
}

TEST(SyntheticTrace, MixMatchesProfile) {
  const WorkloadProfile p = simple_profile();
  SyntheticTrace t(p);
  std::array<long, arch::kNumOpClasses> counts{};
  const long n = 400'000;
  for (long i = 0; i < n; ++i) ++counts[static_cast<int>(t.next().cls)];
  const double tol = 0.05;
  EXPECT_NEAR(double(counts[0]) / double(n), p.frac_int_alu, tol);
  EXPECT_NEAR(double(counts[4]) / double(n), p.frac_load, tol);
  EXPECT_NEAR(double(counts[5]) / double(n), p.frac_store, tol);
  EXPECT_NEAR(double(counts[6]) / double(n), p.frac_branch, tol);
}

TEST(SyntheticTrace, ClassIsStaticPerPc) {
  // The synthetic program has static structure: revisiting a pc always
  // yields the same instruction class.
  SyntheticTrace t(simple_profile());
  std::map<std::uint64_t, OpClass> seen;
  for (int i = 0; i < 200'000; ++i) {
    const MicroOp op = t.next();
    const auto it = seen.find(op.pc);
    if (it != seen.end()) {
      ASSERT_EQ(static_cast<int>(it->second), static_cast<int>(op.cls));
    } else {
      seen.emplace(op.pc, op.cls);
    }
  }
  EXPECT_GT(seen.size(), 1000u);  // and many slots were revisited
}

TEST(SyntheticTrace, DependencyDistancesInRange) {
  const WorkloadProfile p = simple_profile();
  SyntheticTrace t(p);
  double sum = 0.0;
  long n = 0;
  for (int i = 0; i < 100'000; ++i) {
    const MicroOp op = t.next();
    for (int s = 0; s < op.num_srcs; ++s) {
      EXPECT_GE(op.src_dist[s], 1);
      EXPECT_LE(op.src_dist[s], p.max_dep_distance);
      sum += op.src_dist[s];
      ++n;
    }
  }
  EXPECT_NEAR(sum / double(n), p.mean_dep_distance, 1.0);
}

TEST(SyntheticTrace, PcStaysInFootprint) {
  const WorkloadProfile p = simple_profile();
  SyntheticTrace t(p);
  for (int i = 0; i < 100'000; ++i) {
    const MicroOp op = t.next();
    EXPECT_GE(op.pc, 0x12000000u);
    EXPECT_LT(op.pc, 0x12000000u + p.inst_footprint);
  }
}

TEST(SyntheticTrace, MemoryRegionsRespectFractions) {
  WorkloadProfile p = simple_profile();
  p.warm_access_fraction = 0.10;
  p.stream_access_fraction = 0.01;
  SyntheticTrace t(p);
  long hot = 0;
  long warm = 0;
  long stream = 0;
  long mem = 0;
  for (int i = 0; i < 500'000; ++i) {
    const MicroOp op = t.next();
    if (!is_mem(op.cls)) continue;
    ++mem;
    if (op.mem_addr >= 0x60000000u) {
      ++stream;
    } else if (op.mem_addr >= 0x50000000u) {
      ++warm;
    } else {
      ++hot;
    }
  }
  ASSERT_GT(mem, 0);
  EXPECT_NEAR(double(warm) / double(mem), 0.10, 0.02);
  EXPECT_NEAR(double(stream) / double(mem), 0.01, 0.005);
  EXPECT_GT(hot, mem / 2);
}

TEST(SyntheticTrace, HotAddressesWithinFootprint) {
  const WorkloadProfile p = simple_profile();
  SyntheticTrace t(p);
  for (int i = 0; i < 200'000; ++i) {
    const MicroOp op = t.next();
    if (!is_mem(op.cls)) continue;
    if (op.mem_addr < 0x50000000u) {
      EXPECT_LT(op.mem_addr - 0x40000000u, p.data_hot_footprint);
    }
  }
}

TEST(SyntheticTrace, StreamAddressesAdvance) {
  WorkloadProfile p = simple_profile();
  p.stream_access_fraction = 0.5;
  SyntheticTrace t(p);
  std::uint64_t last = 0;
  for (int i = 0; i < 50'000; ++i) {
    const MicroOp op = t.next();
    if (is_mem(op.cls) && op.mem_addr >= 0x60000000u) {
      EXPECT_GT(op.mem_addr, last);
      last = op.mem_addr;
    }
  }
  EXPECT_GT(last, 0x60000000u);
}

TEST(SyntheticTrace, BranchBiasIsPerStaticBranch) {
  // For each static branch, outcomes should be strongly one-sided or
  // near-random — never, say, 70/30 (the generator draws 0.97/0.03/0.5).
  SyntheticTrace t(simple_profile());
  std::map<std::uint64_t, std::pair<long, long>> outcomes;  // taken, total
  for (int i = 0; i < 2'000'000; ++i) {
    const MicroOp op = t.next();
    if (op.cls != OpClass::kBranch) continue;
    auto& [taken, total] = outcomes[op.pc];
    taken += op.branch_taken ? 1 : 0;
    ++total;
  }
  long biased = 0;
  long sampled = 0;
  for (const auto& [pc, tt] : outcomes) {
    if (tt.second < 100) continue;
    ++sampled;
    const double rate = double(tt.first) / double(tt.second);
    if (rate < 0.12 || rate > 0.88) ++biased;
  }
  ASSERT_GT(sampled, 50);
  // Most static branches are strongly biased (easy to predict).
  EXPECT_GT(double(biased) / double(sampled), 0.8);
}

TEST(SyntheticTrace, PhasesRotate) {
  WorkloadProfile p = simple_profile();
  p.phases = {{1000, 1.0, 1.0}, {500, 2.0, 1.0}};
  SyntheticTrace t(p);
  std::set<std::size_t> seen;
  for (int i = 0; i < 4000; ++i) {
    seen.insert(t.current_phase());
    t.next();
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(SyntheticTrace, PhaseIlpScaleChangesDistances) {
  WorkloadProfile lo = simple_profile();
  lo.phases = {{1'000'000, 0.5, 1.0}};
  WorkloadProfile hi = simple_profile();
  hi.phases = {{1'000'000, 2.0, 1.0}};
  auto mean_dist = [](const WorkloadProfile& p) {
    SyntheticTrace t(p);
    double sum = 0.0;
    long n = 0;
    for (int i = 0; i < 100'000; ++i) {
      const MicroOp op = t.next();
      for (int s = 0; s < op.num_srcs; ++s) {
        sum += op.src_dist[s];
        ++n;
      }
    }
    return sum / double(n);
  };
  EXPECT_GT(mean_dist(hi), mean_dist(lo) * 1.5);
}

// --------------------------------------------------------- SPEC profiles
TEST(SpecProfiles, NineBenchmarksInPaperOrder) {
  const auto all = spec2000_hot_profiles();
  ASSERT_EQ(all.size(), 9u);
  const char* expected[] = {"mesa", "perlbmk", "gzip",   "bzip2", "eon",
                            "crafty", "vortex",  "gcc", "art"};
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(all[i].name, expected[i]);
}

TEST(SpecProfiles, AllValid) {
  for (const auto& p : spec2000_hot_profiles()) {
    EXPECT_NO_THROW(p.validate()) << p.name;
  }
}

TEST(SpecProfiles, UniqueSeeds) {
  std::set<std::uint64_t> seeds;
  for (const auto& p : spec2000_hot_profiles()) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), 9u);
}

TEST(SpecProfiles, FpBenchmarksHaveFpMix) {
  for (const char* name : {"mesa", "eon", "art"}) {
    const auto p = spec2000_profile(name);
    EXPECT_GT(p.frac_fp_add + p.frac_fp_mul, 0.15) << name;
  }
  for (const char* name : {"gzip", "crafty", "gcc"}) {
    const auto p = spec2000_profile(name);
    EXPECT_LT(p.frac_fp_add + p.frac_fp_mul, 0.05) << name;
  }
}

TEST(SpecProfiles, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(spec2000_profile("art").name, "art");
  EXPECT_THROW(spec2000_profile("swim"), std::invalid_argument);
}

}  // namespace
}  // namespace hydra::workload
