// The table-driven synthetic trace against its per-op reference twin.
//
//  * SyntheticTrace must emit ReferenceTrace's stream (trace_reference.h)
//    field by field, with the same current_phase(), over >= 1M ops per
//    case: the nine profiles at two seeds, and the edge profiles the
//    tables special-case (no phases, p = 1, max distance 1, a phase mean
//    past 64).
//  * util::GeometricTable must return Rng::geometric's value from the
//    same single next_u64(), over 10^7 random draws per (p, max) and at
//    every threshold and guard-band edge, where the table hands over to
//    the formula.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "trace_reference.h"
#include "util/geometric_table.h"
#include "util/rng.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

namespace hydra {
namespace {

using workload::WorkloadProfile;

constexpr const char* kProfiles[] = {"mesa",   "perlbmk", "gzip",
                                     "bzip2",  "eon",     "crafty",
                                     "vortex", "gcc",     "art"};

// Returns the index of the first op that differs, or -1.
long long first_mismatch(const WorkloadProfile& p, long long ops) {
  workload::SyntheticTrace trace(p);
  workload::ReferenceTrace ref(p);
  for (long long i = 0; i < ops; ++i) {
    if (trace.current_phase() != ref.current_phase()) return i;
    const arch::MicroOp a = trace.next();
    const arch::MicroOp b = ref.next();
    if (a.cls != b.cls || a.num_srcs != b.num_srcs ||
        a.src_dist[0] != b.src_dist[0] || a.src_dist[1] != b.src_dist[1] ||
        a.pc != b.pc || a.mem_addr != b.mem_addr ||
        a.branch_taken != b.branch_taken) {
      return i;
    }
  }
  return -1;
}

constexpr long long kTwinOps = 1'000'000;

class TraceTwin : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceTwin, MatchesReferenceAtTwoSeeds) {
  WorkloadProfile p = workload::spec2000_profile(GetParam());
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1) << "seed " << p.seed;
  p.seed = 2;
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1) << "seed " << p.seed;
}

INSTANTIATE_TEST_SUITE_P(Spec2000, TraceTwin, ::testing::ValuesIn(kProfiles),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

WorkloadProfile edge_profile() {
  WorkloadProfile p = workload::spec2000_profile("gcc");
  p.phases = {{3000, 1.0, 1.0}, {1, 0.5, 2.0}, {5000, 1.2, 0.0}};
  return p;
}

TEST(TraceTwinEdges, NoPhases) {
  WorkloadProfile p = edge_profile();
  p.phases.clear();
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1);
}

TEST(TraceTwinEdges, MeanDistanceOneDrawsNothing) {
  WorkloadProfile p = edge_profile();
  p.mean_dep_distance = 1.0;  // p = 1 in every phase with ilp_scale <= 1
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1);
}

TEST(TraceTwinEdges, MaxDistanceOne) {
  WorkloadProfile p = edge_profile();
  p.max_dep_distance = 1;
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1);
}

TEST(TraceTwinEdges, PhaseMeanPastSixtyFour) {
  WorkloadProfile p = edge_profile();
  p.mean_dep_distance = 9.0;
  p.phases[1].ilp_scale = 8.0;  // mean 72 with max_dep_distance 64
  p.phases[1].length_instructions = 20'000;
  EXPECT_EQ(first_mismatch(p, kTwinOps), -1);
}

// ------------------------------------------------------------ draw tables

// Rng::geometric's formula on the 53-bit uniform y, written out again.
int formula(double p, int max, std::uint64_t y) {
  const double g =
      std::log1p(-(static_cast<double>(y) * 0x1.0p-53)) / std::log1p(-p);
  const int k = static_cast<int>(g);
  return k > max ? max : k;
}

constexpr int kMaxes[] = {0, 1, 63, 1000};

// The distinct phase means of one profile.
std::vector<double> phase_means(const WorkloadProfile& p) {
  std::vector<double> means;
  if (p.phases.empty()) means.push_back(std::max(1.0, p.mean_dep_distance));
  for (const workload::PhaseSpec& ph : p.phases) {
    means.push_back(std::max(1.0, p.mean_dep_distance * ph.ilp_scale));
  }
  return means;
}

class GeometricTableDraws : public ::testing::TestWithParam<const char*> {};

TEST_P(GeometricTableDraws, MatchRngGeometric) {
  constexpr int kDraws = 10'000'000;
  const WorkloadProfile prof = workload::spec2000_profile(GetParam());
  for (const double mean : phase_means(prof)) {
    const double p = 1.0 / mean;
    for (const int max : kMaxes) {
      const util::GeometricTable table(p, max);
      util::Rng a(prof.seed);
      util::Rng b(prof.seed);
      int mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        mismatches += a.geometric(p, max) != table.draw(b);
      }
      EXPECT_EQ(mismatches, 0) << "p " << p << " max " << max;
      EXPECT_EQ(a.next_u64(), b.next_u64()) << "p " << p << " max " << max;
    }
  }
}

TEST_P(GeometricTableDraws, ExactAtEveryThresholdAndGuardEdge) {
  constexpr std::uint64_t kSpan = std::uint64_t{1} << 53;
  constexpr auto kGuard = static_cast<std::int64_t>(
      util::GeometricTable::kGuard);
  const WorkloadProfile prof = workload::spec2000_profile(GetParam());
  for (const double mean : phase_means(prof)) {
    const double p = 1.0 / mean;
    for (const int max : kMaxes) {
      const util::GeometricTable table(p, max);
      const std::vector<std::uint64_t> t = table.thresholds();
      ASSERT_LE(t.size(), static_cast<std::size_t>(max));
      int checked = 0;
      for (std::size_t j = 0; j < t.size(); ++j) {
        const int step = static_cast<int>(j) + 1;
        // T_j is the least y whose draw is >= j.
        EXPECT_GE(formula(p, max, t[j]), step) << "p " << p << " j " << step;
        if (t[j] > 0) {
          EXPECT_LT(formula(p, max, t[j] - 1), step)
              << "p " << p << " j " << step;
        }
        const std::int64_t offsets[] = {-kGuard - 1, -kGuard, -kGuard + 1,
                                        -3, -2, -1, 0, 1, 2, 3,
                                        kGuard - 1, kGuard, kGuard + 1};
        for (const std::int64_t d : offsets) {
          const std::int64_t y = static_cast<std::int64_t>(t[j]) + d;
          if (y < 0 || y >= static_cast<std::int64_t>(kSpan)) continue;
          const auto uy = static_cast<std::uint64_t>(y);
          EXPECT_EQ(table.lookup(uy), formula(p, max, uy))
              << "p " << p << " max " << max << " y " << uy;
          ++checked;
        }
      }
      // Reachable draws stop short of max only when 53 bits run out.
      if (t.size() < static_cast<std::size_t>(max)) {
        EXPECT_LT(formula(p, max, kSpan - 1), max) << "p " << p;
      }
      EXPECT_EQ(checked > 0, max > 0);
      for (const std::uint64_t y : {std::uint64_t{0}, kSpan - 1}) {
        EXPECT_EQ(table.lookup(y), formula(p, max, y)) << "p " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spec2000, GeometricTableDraws,
                         ::testing::ValuesIn(kProfiles),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// Past kMaxSteps reachable thresholds the table stops and the formula
// draws the tail.
TEST(GeometricTable, DrawsPastTheLastTabledStepByFormula) {
  const double p = 1e-3;  // ~36,700 reachable steps
  const int max = 100'000;
  const util::GeometricTable table(p, max);
  const std::vector<std::uint64_t> t = table.thresholds();
  ASSERT_EQ(t.size(),
            static_cast<std::size_t>(util::GeometricTable::kMaxSteps));
  for (const std::uint64_t y : {t.back() - 1, t.back(), t.back() + 1000,
                                (std::uint64_t{1} << 53) - 1}) {
    EXPECT_EQ(table.lookup(y), formula(p, max, y)) << "y " << y;
  }
  util::Rng a(5);
  util::Rng b(5);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    mismatches += a.geometric(p, max) != table.draw(b);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(GeometricTable, DegenerateProbabilitiesDrawNothing) {
  util::Rng a(3);
  util::Rng b(3);
  const util::GeometricTable one(1.0, 63);
  const util::GeometricTable zero(0.0, 63);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(one.draw(b), a.geometric(1.0, 63));
    EXPECT_EQ(zero.draw(b), a.geometric(0.0, 63));
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_TRUE(one.thresholds().empty());
}

}  // namespace
}  // namespace hydra
