// The per-struct field lists (util/fields.h): cache keys and the stored
// payload pinned to the values the hand-written hash and codec produced,
// every visited field part of a run's key, the dotted-path setter and
// the field-by-field diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/persistent_cache.h"
#include "util/fields.h"
#include "util/json.h"
#include "workload/spec_profiles.h"

namespace hydra::sim {
namespace {

// The hand-written per-field hash functions produced these values for
// crafty under Hyb. A change here orphans every entry of every existing
// store, which then needs a kFormatVersion bump.
TEST(FieldKeys, MatchTheHashesTheyReplaced) {
  SimConfig die;  // 16 cores, migration, a 40 W budget
  die.multicore.cores = 16;
  die.multicore.migration = true;
  die.multicore.arbiter.die_budget = util::Watts(40.0);
  SimConfig faulted;  // a two-event campaign, run guarded
  faulted.fault_campaign = fault::FaultCampaign(
      {fault::FaultEvent{3, fault::FaultKind::kStuckAt, 0.002,
                         std::numeric_limits<double>::infinity(), 40.0, 1.0},
       fault::FaultEvent{7, fault::FaultKind::kSpike, 0.0, 0.001, 30.0,
                         0.01}},
      42);
  PolicyParams guarded;
  guarded.guarded = true;
  const struct {
    SimConfig cfg;
    PolicyParams params;
    std::uint64_t config, model, run;
  } cases[] = {
      {SimConfig{}, PolicyParams{}, 0x74fa89c6b60165a2ull,
       0x36f72a5b2fc5315eull, 0xd0dba541f2908818ull},
      {die, PolicyParams{}, 0x17d337d0883cdb58ull, 0x664580d38bbfd96full,
       0x72306684566d9be6ull},
      {faulted, guarded, 0x8cdf157bb286b625ull, 0x36f72a5b2fc5315eull,
       0x8b29d99f12343adeull},
  };
  const workload::WorkloadProfile crafty = workload::spec2000_profile("crafty");
  for (const auto& c : cases) {
    EXPECT_EQ(config_hash(c.cfg), c.config);
    EXPECT_EQ(model_key(c.cfg), c.model);
    EXPECT_EQ(run_point_key(crafty, PolicyKind::kHybrid, c.params, c.cfg),
              c.run);
  }
}

// Field i holds "f<i>", 1000 + i or i + 0.5 by type: every one of the 29
// distinct and off its default.
RunResult distinct_result() {
  RunResult r;
  int i = 0;
  util::for_each_leaf(r, [&i](std::string_view, auto& leaf) {
    using L = std::remove_cvref_t<decltype(leaf)>;
    if constexpr (std::is_same_v<L, std::string>) {
      leaf = "f" + std::to_string(i);
    } else if constexpr (std::is_integral_v<L>) {
      leaf = static_cast<L>(1000 + i);
    } else {
      leaf = i + 0.5;
    }
    ++i;
  });
  EXPECT_EQ(i, 29);
  return r;
}

// The bytes the hand-written serializer wrote for distinct_result(), so
// a field dropped, moved or re-typed in RunResult's list fails here.
TEST(FieldPayload, MatchesTheCodecItReplaced) {
  const RunResult r = distinct_result();
  const std::string payload = serialize_run_result(r);
  std::string hex;
  for (const char c : payload) {
    hex += "0123456789abcdef"[static_cast<unsigned char>(c) >> 4];
    hex += "0123456789abcdef"[static_cast<unsigned char>(c) & 0xf];
  }
  EXPECT_EQ(hex,
            "02000000000000006630020000000000000066310000000000000440eb030000"
            "00000000ec0300000000000000000000000016400000000000001a4000000000"
            "00001e400000000000002140f103000000000000000000000000254000000000"
            "0000274000000000000029400000000000002b400000000000002d4003000000"
            "0000000066313500000000008030400000000000803140fa03000000000000fb"
            "03000000000000fc03000000000000fd03000000000000000000000080364000"
            "0000000080374000000000008038400104000000000000020400000000000000"
            "00000000803b400000000000803c40");
  RunResult back;
  ASSERT_TRUE(deserialize_run_result(payload, back));
  EXPECT_EQ(util::diff_fields(back, r), "");
}

// A store entry's header names format version 4: the payload layout is
// v3's, but v3 entries may hold a result computed with the core's memory
// latency sized by core.nominal_frequency_hz instead of f_nominal.
TEST(FieldPayload, StoreEntriesNameFormatVersion4) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "fields_version";
  std::error_code ec;
  fs::remove_all(dir, ec);
  PersistentRunCache store({dir.string()});
  store.save(0x1234, distinct_result());
  std::ifstream in(dir / "shard-04" / "0000000000001234.run",
                   std::ios::binary);
  const std::string entry((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GE(entry.size(), 8u);
  EXPECT_EQ(entry.substr(0, 8), std::string("HYRC\x04\0\0\0", 8));
}

// Moves one leaf off its value: every type a visitor can reach.
template <class T>
void perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<int>(v) + 1);
  } else if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(v + 1);
  } else if constexpr (util::kIsReal<T>) {
    v = T(util::real_value(v) + 1.0);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += 'x';
  } else if constexpr (util::kIsVector<T>) {
    v.emplace_back();
  } else {
    static_assert(std::is_same_v<T, fault::FaultCampaign>);
    v = fault::FaultCampaign(
        {fault::FaultEvent{0, fault::FaultKind::kDead, 0.0, 1.0, 0.0, 1.0}});
  }
}

// Expects `key_of` to move when any single leaf of `obj` moves.
template <class T, class KeyOf>
void expect_every_leaf_moves_key(const T& obj, KeyOf key_of) {
  const std::uint64_t base = key_of(obj);
  for (std::size_t target = 0;; ++target) {
    T copy = obj;
    std::size_t i = 0;
    std::string path;
    util::for_each_leaf(copy, [&](std::string_view p, auto& leaf) {
      if (i++ == target) {
        perturb(leaf);
        path = p;
      }
    });
    if (target >= i) break;
    EXPECT_NE(key_of(copy), base) << path;
  }
}

// A visited field that did not move the key would let a sweep point be
// served another point's cached result.
TEST(FieldKeys, EveryVisitedLeafMovesTheRunKey) {
  const workload::WorkloadProfile gzip = workload::spec2000_profile("gzip");
  const SimConfig cfg;
  const PolicyParams params;
  const PolicyKind hyb = PolicyKind::kHybrid;
  expect_every_leaf_moves_key(cfg, [&](const SimConfig& c) {
    return run_point_key(gzip, hyb, params, c);
  });
  expect_every_leaf_moves_key(params, [&](const PolicyParams& p) {
    return run_point_key(gzip, hyb, p, cfg);
  });
  expect_every_leaf_moves_key(gzip, [&](const workload::WorkloadProfile& w) {
    return run_point_key(w, hyb, params, cfg);
  });
  // Leaves inside a vector element count too; the worker width never.
  workload::WorkloadProfile phased = gzip;
  phased.phases.at(0).ilp_scale += 0.5;
  EXPECT_NE(run_point_key(phased, hyb, params, cfg),
            run_point_key(gzip, hyb, params, cfg));
  SimConfig wide = cfg;
  wide.multicore.threads = 8;
  EXPECT_EQ(run_point_key(gzip, hyb, params, wide),
            run_point_key(gzip, hyb, params, cfg));
}

// hydra_run sets both structs from one key space.
TEST(FieldPaths, SimConfigAndPolicyParamsNeverCollide) {
  std::vector<std::string> paths = util::settable_paths<SimConfig>();
  const std::vector<std::string> params = util::settable_paths<PolicyParams>();
  paths.insert(paths.end(), params.begin(), params.end());
  const std::set<std::string> unique(paths.begin(), paths.end());
  EXPECT_EQ(unique.size(), paths.size());
  for (const char* p : {"thermal_interval_cycles", "core.rob_entries",
                        "core.l2.size_bytes", "multicore.cores",
                        "multicore.arbiter.die_budget", "thresholds.trigger",
                        "hybrid.crossover_gate_fraction", "guarded",
                        "proactive.hybrid.ki"}) {
    EXPECT_EQ(unique.count(p), 1u) << p;
  }
  // Enums, classes, structs and the execution width are not settable.
  for (const char* p : {"core.predictor", "dvs.mode", "fault_campaign",
                        "multicore.threads", "core", "guard"}) {
    EXPECT_EQ(unique.count(p), 0u) << p;
  }
}

TEST(FieldSetter, ParsesEachLeafTypeInFull) {
  SimConfig cfg;
  PolicyParams params;
  EXPECT_TRUE(util::set_field(cfg, "core.rob_entries", "128"));
  EXPECT_TRUE(util::set_field(cfg, "thermal_interval_cycles", "1250"));
  EXPECT_TRUE(util::set_field(cfg, "thresholds.trigger", "78.5"));
  EXPECT_TRUE(util::set_field(cfg, "dvs_stall", "false"));
  EXPECT_TRUE(util::set_field(params, "guarded", "true"));
  EXPECT_EQ(cfg.core.rob_entries, 128);
  EXPECT_EQ(cfg.thermal_interval_cycles, 1250);
  EXPECT_EQ(cfg.thresholds.trigger, util::Celsius(78.5));
  EXPECT_FALSE(cfg.dvs_stall);
  EXPECT_TRUE(params.guarded);
  EXPECT_FALSE(util::set_field(cfg, "cores", "8"));
  EXPECT_FALSE(util::set_field(cfg, "core.predictor", "1"));
  EXPECT_THROW(util::set_field(cfg, "run_instructions", "-1"),
               std::invalid_argument);
  EXPECT_THROW(util::set_field(cfg, "time_scale", "nan"),
               std::invalid_argument);
}

TEST(FieldDiff, NamesEachFieldAndComparesDoublesBitwise) {
  RunResult a = distinct_result();
  RunResult b = a;
  EXPECT_EQ(util::diff_fields(a, b), "");
  b.ipc = 1.5;
  b.hottest_block = "Dcache";
  EXPECT_EQ(util::diff_fields(a, b),
            "ipc: 5.5 != 1.5\nhottest_block: f15 != Dcache\n");
  a.wall_seconds = 0.0;
  b = a;
  b.wall_seconds = -0.0;
  EXPECT_EQ(util::diff_fields(a, b), "wall_seconds: 0 != -0\n");
  a.ipc = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(util::diff_fields(a, a), "");
}

TEST(FieldJson, RunResultObjectCarriesEveryField) {
  const RunResult r = distinct_result();
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  util::write_json_members(w, r);
  w.end_object();
  const std::string json = os.str();
  util::for_each_leaf(r, [&json](std::string_view path, const auto&) {
    EXPECT_NE(json.find("\"" + std::string(path) + "\""), std::string::npos)
        << path;
  });
  EXPECT_NE(json.find("\"hottest_mean_celsius\": 16.5"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace hydra::sim
