// Recorded bits of the out-of-order core under every fidelity option the
// golden digests do not reach.
//
// Each case drives a Core over a SyntheticTrace through a fixed script
// that steps the clock among 1.5, 3 and 9 GHz (at 9 GHz a memory miss
// takes 720 cycles, past the issue stage's 256-cycle ready-cycle wheel),
// gates fetch and issue on duty cycles, and inserts clocked and gated
// idle spans longer than 256 cycles. It hashes the bits of every activity
// frame it reads and records CoreStats. core_fixtures.inc holds the
// values recorded before the hot loop's table-driven trace, ready-cycle
// wheel and integer activity counts went in; any change to a simulated
// bit fails here and prints the line to compare.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "arch/core.h"
#include "arch/core_config.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

namespace hydra {
namespace {

struct CoreFixture {
  const char* profile;
  bool fidelity;    ///< mshr_entries = 4 and store_forwarding
  bool tournament;  ///< tournament predictor instead of gshare
  std::uint64_t stats[9];
  std::uint64_t frames;
  std::uint64_t frame_hash;
};

constexpr CoreFixture kFixtures[] = {
#include "core_fixtures.inc"
};

constexpr std::uint64_t kInstructions = 300'000;

struct Segment {
  double hz;
  double fetch_gate;
  double issue_gate;
  int cycles;
  std::uint64_t idle;
  bool clocked;
};

constexpr Segment kScript[] = {
    {3.0e9, 0.0, 0.0, 20000, 0, true},
    {9.0e9, 0.0, 0.0, 15000, 300, true},
    {1.5e9, 0.3, 0.0, 10000, 1000, false},
    {3.0e9, 0.0, 0.4, 10000, 257, true},
    {9.0e9, 0.5, 0.2, 8000, 5000, false},
    {1.5e9, 0.0, 0.0, 12000, 0, true},
    {3.0e9, 0.85, 0.0, 6000, 256, true},
    {9.0e9, 0.0, 0.0, 20000, 2, false},
};

struct Recorder {
  std::uint64_t frames = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  void mix(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  void add(const arch::ActivityFrame& f) {
    ++frames;
    for (double e : f.events) mix(e);
    mix(f.cycles);
    mix(f.clocked_cycles);
  }
};

CoreFixture run_case(const char* profile, bool fidelity, bool tournament) {
  arch::CoreConfig cfg;
  if (fidelity) {
    cfg.mshr_entries = 4;
    cfg.store_forwarding = true;
  }
  if (tournament) cfg.predictor = arch::CoreConfig::Predictor::kTournament;
  workload::SyntheticTrace trace(workload::spec2000_profile(profile));
  arch::Core core(cfg, trace);
  Recorder rec;
  for (std::size_t i = 0; core.committed() < kInstructions; ++i) {
    const Segment& s = kScript[i % std::size(kScript)];
    core.set_frequency(s.hz);
    core.set_fetch_gate_fraction(s.fetch_gate);
    core.set_issue_gate_fraction(s.issue_gate);
    for (int c = 0; c < s.cycles / 2; ++c) core.cycle();
    rec.add(core.interval_activity());  // read without clearing
    for (int c = s.cycles / 2; c < s.cycles; ++c) core.cycle();
    core.idle_cycles(s.idle, s.clocked);
    rec.add(core.take_interval_activity());
  }
  const arch::CoreStats& st = core.stats();
  return {profile,
          fidelity,
          tournament,
          {st.committed, st.cycles, st.fetch_gated_cycles, st.fetched,
           st.branches, st.mispredicts, st.icache_misses, st.dcache_misses,
           st.l2_misses},
          rec.frames,
          rec.hash};
}

std::string fixture_line(const CoreFixture& f) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %s, %s, {%llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu}, %llu, 0x%016llxULL},",
                f.profile, f.fidelity ? "true" : "false",
                f.tournament ? "true" : "false",
                static_cast<unsigned long long>(f.stats[0]),
                static_cast<unsigned long long>(f.stats[1]),
                static_cast<unsigned long long>(f.stats[2]),
                static_cast<unsigned long long>(f.stats[3]),
                static_cast<unsigned long long>(f.stats[4]),
                static_cast<unsigned long long>(f.stats[5]),
                static_cast<unsigned long long>(f.stats[6]),
                static_cast<unsigned long long>(f.stats[7]),
                static_cast<unsigned long long>(f.stats[8]),
                static_cast<unsigned long long>(f.frames),
                static_cast<unsigned long long>(f.frame_hash));
  return buf;
}

class CoreFixtures : public ::testing::TestWithParam<const char*> {};

TEST_P(CoreFixtures, MatchRecordedBits) {
  const char* profile = GetParam();
  for (const bool fidelity : {false, true}) {
    for (const bool tournament : {false, true}) {
      const CoreFixture got = run_case(profile, fidelity, tournament);
      const CoreFixture* want = nullptr;
      for (const CoreFixture& f : kFixtures) {
        if (std::strcmp(f.profile, profile) == 0 && f.fidelity == fidelity &&
            f.tournament == tournament) {
          want = &f;
        }
      }
      const std::string line = fixture_line(got);
      if (want == nullptr) {
        ADD_FAILURE() << "no fixture; measured:\n" << line;
        continue;
      }
      EXPECT_EQ(fixture_line(*want), line);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spec2000, CoreFixtures,
                         ::testing::Values("mesa", "perlbmk", "gzip",
                                           "bzip2", "eon", "crafty",
                                           "vortex", "gcc", "art"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace hydra
