// Recorded results of both simulation engines under configurations the
// golden digests do not reach.
//
// The single-core System runs every PolicyKind with and without the DVS
// pipeline stall, plus a guarded Hyb under a stuck-at sensor campaign;
// every System case also hashes its StepTrace stream. The 4-core die
// runs three busy threads under the baseline, per-core Hyb, global-DVS
// Hyb, migration, the power-budget arbiter and a guarded Hyb; each die
// case hashes every CoreRunStats and MigrationEvent field. A case stores
// its aggregate RunResult as the hex of serialize_run_result, so a
// mismatch decodes the recorded bytes and names each field that moved.
// engine_fixtures.inc holds the values recorded before the two engines
// shared one tile state machine; any change to a simulated bit fails
// here and prints the line to compare.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_campaign.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "sim/persistent_cache.h"
#include "sim/system.h"
#include "util/fields.h"
#include "workload/spec_profiles.h"

namespace hydra::sim {
namespace {

struct EngineFixture {
  const char* name;
  const char* result_hex;  ///< serialize_run_result of the aggregate
  std::uint64_t detail_hash;  ///< StepTrace stream, or per-core + migrations
};

constexpr EngineFixture kFixtures[] = {
#include "engine_fixtures.inc"
};

struct Hasher {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  void mix(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (bits >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return out;
}

struct Measured {
  RunResult result;
  std::uint64_t detail_hash = 0;
};

SimConfig system_config(bool dvs_stall) {
  SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.warmup_instructions = 200'000;
  cfg.run_instructions = 400'000;
  cfg.activity_probe_instructions = 200'000;
  cfg.thresholds.trigger = util::Celsius(77.0);
  cfg.thresholds.emergency = util::Celsius(80.0);
  cfg.dvs_stall = dvs_stall;
  return cfg;
}

Measured run_system(PolicyKind kind, const PolicyParams& params,
                    const SimConfig& cfg) {
  System system(workload::spec2000_profile("crafty"), cfg,
                make_policy(kind, params, cfg));
  Hasher h;
  system.set_trace_callback([&h](const StepTrace& st) {
    h.mix(st.time_seconds);
    h.mix(st.max_true_celsius);
    h.mix(st.voltage.value());
    h.mix(st.frequency.value());
    h.mix(st.gate_fraction);
    h.mix(std::uint64_t{st.clock_gated});
    h.mix(st.committed);
    h.mix(st.power_watts);
  });
  Measured m;
  m.result = system.run();
  m.detail_hash = h.hash;
  return m;
}

/// A 4-core die with three busy threads; thresholds come down with the
/// cooler tiled die so its policies engage within the short window.
SimConfig die_config() {
  SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 300'000;
  cfg.run_instructions = 400'000;
  cfg.activity_probe_instructions = 200'000;
  cfg.thresholds.trigger = util::Celsius(70.0);
  cfg.thresholds.emergency = util::Celsius(74.0);
  cfg.multicore.cores = 4;
  cfg.multicore.workload_threads = 3;
  cfg.multicore.threads = 1;
  return cfg;
}

Measured run_die(PolicyKind kind, const PolicyParams& params,
                 const SimConfig& cfg) {
  MulticoreSystem system(
      workload::spec2000_profile("crafty"), cfg,
      [kind, params, cfg] { return make_policy(kind, params, cfg); });
  const MulticoreResult r = system.run();
  Hasher h;
  h.mix(std::uint64_t{r.per_core.size()});
  for (const CoreRunStats& s : r.per_core) {
    h.mix(std::uint64_t{s.tile});
    h.mix(s.instructions);
    h.mix(s.cycles);
    h.mix(s.ipc);
    h.mix(s.max_true_celsius);
    h.mix(s.mean_gate_fraction);
    h.mix(s.dvs_low_fraction);
    h.mix(s.occupied_fraction);
    h.mix(std::uint64_t{s.dvs_transitions});
    h.mix(s.migrations_in);
    h.mix(s.migrations_out);
  }
  h.mix(std::uint64_t{r.migrations.size()});
  for (const MigrationEvent& ev : r.migrations) {
    h.mix(ev.time_seconds);
    h.mix(std::uint64_t{ev.from});
    h.mix(std::uint64_t{ev.to});
    h.mix(ev.tmax_before_celsius);
    h.mix(ev.tmax_after_celsius);
  }
  return {r.aggregate, h.hash};
}

struct Case {
  std::string name;
  std::function<Measured()> run;
};

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const PolicyKind kind :
       {PolicyKind::kNone, PolicyKind::kDvs, PolicyKind::kFetchGating,
        PolicyKind::kFixedFetchGating, PolicyKind::kClockGating,
        PolicyKind::kPiHybrid, PolicyKind::kHybrid,
        PolicyKind::kProactiveHybrid, PolicyKind::kLocalToggle,
        PolicyKind::kFallback}) {
    for (const bool stall : {true, false}) {
      std::string name = "System_" + policy_kind_name(kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      out.push_back({name + (stall ? "_stall" : "_nostall"), [kind, stall] {
                       return run_system(kind, PolicyParams{},
                                         system_config(stall));
                     }});
    }
  }
  out.push_back({"System_GuardedHyb_StuckAt", [] {
                   SimConfig cfg = system_config(true);
                   cfg.fault_campaign = fault::FaultCampaign::from_string(
                       "IntReg stuck_at 0.002 inf 40\n", sensor_names());
                   PolicyParams params;
                   params.guarded = true;
                   return run_system(PolicyKind::kHybrid, params, cfg);
                 }});

  out.push_back({"Die_Baseline", [] {
                   return run_die(PolicyKind::kNone, PolicyParams{},
                                  die_config());
                 }});
  out.push_back({"Die_PerCoreHyb", [] {
                   return run_die(PolicyKind::kHybrid, PolicyParams{},
                                  die_config());
                 }});
  out.push_back({"Die_GlobalDvsHyb", [] {
                   SimConfig cfg = die_config();
                   cfg.multicore.per_core_dvs = false;
                   return run_die(PolicyKind::kHybrid, PolicyParams{}, cfg);
                 }});
  out.push_back({"Die_Migration", [] {
                   SimConfig cfg = die_config();
                   cfg.multicore.migration = true;
                   return run_die(PolicyKind::kHybrid, PolicyParams{}, cfg);
                 }});
  out.push_back({"Die_Arbiter", [] {
                   SimConfig cfg = die_config();
                   cfg.multicore.arbiter.die_budget = util::Watts(16.0);
                   return run_die(PolicyKind::kHybrid, PolicyParams{}, cfg);
                 }});
  out.push_back({"Die_GuardedHyb", [] {
                   PolicyParams params;
                   params.guarded = true;
                   return run_die(PolicyKind::kHybrid, params, die_config());
                 }});
  return out;
}

std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const Case& c : all_cases()) names.push_back(c.name);
  return names;
}

std::string fixture_line(const std::string& name, const std::string& hex,
                         std::uint64_t hash) {
  char tail[32];
  std::snprintf(tail, sizeof tail, "0x%016llxULL},",
                static_cast<unsigned long long>(hash));
  return "{\"" + name + "\", \"" + hex + "\", " + tail;
}

// The fixtures hold the production dispatch's bits (the 4-core die's 82
// nodes take the sparse path).
class EngineFixtures : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineFixtures, MatchRecordedBits) {
  const std::string& name = GetParam();
  Measured got;
  for (const Case& c : all_cases()) {
    if (c.name == name) got = c.run();
  }
  const std::string hex = to_hex(serialize_run_result(got.result));
  const std::string line = fixture_line(name, hex, got.detail_hash);
  const EngineFixture* want = nullptr;
  for (const EngineFixture& f : kFixtures) {
    if (name == f.name) want = &f;
  }
  if (want == nullptr) {
    ADD_FAILURE() << "no fixture; measured:\n" << line;
    return;
  }
  if (hex != want->result_hex) {
    RunResult recorded;
    ASSERT_TRUE(deserialize_run_result(from_hex(want->result_hex), recorded));
    ADD_FAILURE() << "aggregate moved:\n"
                  << util::diff_fields(recorded, got.result)
                  << "measured:\n"
                  << line;
  }
  EXPECT_EQ(want->detail_hash, got.detail_hash) << "measured:\n" << line;
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineFixtures,
                         ::testing::ValuesIn(case_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace hydra::sim
