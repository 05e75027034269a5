// Many-core die: tiled floorplan validity, intra-run parallelism
// determinism (bit-identical at any worker width, trace lanes included),
// the thermal-aware migration property, the power-budget arbiter, and
// per-core vs global DVS domains. Short, hot configurations: thresholds
// are lowered so the policies actually engage within a few hundred
// thousand instructions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "floorplan/ev7.h"
#include "floorplan/multicore.h"
#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/multicore.h"
#include "sim/persistent_cache.h"
#include "sim/system.h"
#include "util/fields.h"

namespace hydra::sim {
namespace {

/// Fast many-core configuration. The tiled die runs cooler than the
/// single-core one at equal power density (smaller heat sources spread
/// laterally better), so the DTM thresholds come down with it.
SimConfig mc_config(std::size_t cores) {
  SimConfig cfg;
  cfg.time_scale = 150.0;
  cfg.thermal_interval_cycles = 2'000;
  cfg.warmup_instructions = 300'000;
  cfg.run_instructions = 400'000;
  cfg.thresholds.trigger = util::Celsius(70.0);
  cfg.thresholds.emergency = util::Celsius(74.0);
  cfg.multicore.cores = cores;
  cfg.multicore.threads = 1;
  return cfg;
}

workload::WorkloadProfile hot_profile() {
  return workload::spec2000_profile("crafty");
}

PolicyFactory hyb_factory(const SimConfig& cfg) {
  return [cfg] {
    return make_policy(PolicyKind::kHybrid, PolicyParams{}, cfg);
  };
}

// ---------------------------------------------------------- floorplan
TEST(MulticoreFloorplan, TilesDieExactlyAtEveryCount) {
  const floorplan::Floorplan unit = floorplan::ev7_floorplan();
  for (const std::size_t cores : {1u, 2u, 4u, 6u, 8u}) {
    const floorplan::Floorplan fp = floorplan::multicore_floorplan(cores);
    EXPECT_EQ(fp.size(), cores * floorplan::kNumBlocks) << cores;
    EXPECT_DOUBLE_EQ(fp.die_width(), unit.die_width()) << cores;
    EXPECT_DOUBLE_EQ(fp.die_height(), unit.die_height()) << cores;
    EXPECT_TRUE(fp.overlap_free()) << cores;
    EXPECT_TRUE(fp.covers_die(1e-6)) << cores;
  }
}

TEST(MulticoreFloorplan, GridIsSquarestFactorPair) {
  EXPECT_EQ(floorplan::tile_grid(1).rows, 1u);
  EXPECT_EQ(floorplan::tile_grid(1).cols, 1u);
  EXPECT_EQ(floorplan::tile_grid(4).rows, 2u);
  EXPECT_EQ(floorplan::tile_grid(4).cols, 2u);
  EXPECT_EQ(floorplan::tile_grid(8).rows, 2u);
  EXPECT_EQ(floorplan::tile_grid(8).cols, 4u);
  EXPECT_EQ(floorplan::tile_grid(7).rows, 1u);  // prime -> strip
  EXPECT_EQ(floorplan::tile_grid(7).cols, 7u);
}

TEST(MulticoreFloorplan, BlockNamesCarryTilePrefix) {
  const floorplan::Floorplan fp = floorplan::multicore_floorplan(4);
  EXPECT_EQ(fp.block(floorplan::tile_block_index(0, 0)).name.substr(0, 3),
            "c0.");
  EXPECT_EQ(fp.block(floorplan::tile_block_index(3, 0)).name.substr(0, 3),
            "c3.");
}

// ------------------------------------------------------- determinism
TEST(Multicore, BitIdenticalAcrossWorkerWidths) {
  // Constructs MulticoreSystem directly — going through the memoizing
  // runner would make this pass vacuously via cache hits (threads is
  // deliberately not part of the run key).
  const auto run_at_width = [](std::size_t threads) {
    SimConfig cfg = mc_config(4);
    cfg.multicore.threads = threads;
    cfg.multicore.workload_threads = 3;
    cfg.multicore.migration = true;
    cfg.multicore.arbiter.die_budget = util::Watts(30.0);
    MulticoreSystem system(hot_profile(), cfg, hyb_factory(cfg), "Hyb");
    return system.run();
  };
  const MulticoreResult a = run_at_width(1);
  const MulticoreResult b = run_at_width(4);
  const MulticoreResult c = run_at_width(8);
  EXPECT_EQ(util::diff_fields(a.aggregate, b.aggregate), "");
  EXPECT_EQ(util::diff_fields(a.aggregate, c.aggregate), "");
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t t = 0; t < a.per_core.size(); ++t) {
    EXPECT_EQ(a.per_core[t].cycles, b.per_core[t].cycles) << t;
    EXPECT_EQ(a.per_core[t].instructions, c.per_core[t].instructions) << t;
    EXPECT_DOUBLE_EQ(a.per_core[t].max_true_celsius,
                     b.per_core[t].max_true_celsius)
        << t;
  }
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].from, b.migrations[i].from);
    EXPECT_EQ(a.migrations[i].to, b.migrations[i].to);
    EXPECT_DOUBLE_EQ(a.migrations[i].time_seconds,
                     c.migrations[i].time_seconds);
  }
}

/// Sim-domain trace rows keyed by lane name (lane ids differ from run to
/// run), each lane's rows sorted: workers interleave their buffers.
std::map<std::string, std::vector<std::string>> sim_rows_by_lane() {
  std::ostringstream csv;
  obs::tracer().write_csv(csv);
  std::map<std::string, std::vector<std::string>> lanes;
  std::istringstream in(csv.str());
  std::string row;
  std::getline(in, row);  // header: domain,lane,lane_name,phase,...
  while (std::getline(in, row)) {
    if (row.rfind("sim,", 0) != 0) continue;
    const std::size_t name_at = row.find(',', 4) + 1;
    const std::size_t rest_at = row.find(',', name_at);
    lanes[row.substr(name_at, rest_at - name_at)].push_back(
        row.substr(rest_at + 1));
  }
  for (auto& [name, rows] : lanes) std::sort(rows.begin(), rows.end());
  return lanes;
}

std::uint64_t counter_value(const char* name) {
  for (const auto& [n, v] : obs::metrics().scrape().counters) {
    if (n == name) return v;
  }
  return 0;
}

bool has_event(const std::vector<std::string>& rows, const char* name) {
  const std::string key = std::string(",dtm,") + name + ",";
  return std::any_of(rows.begin(), rows.end(), [&key](const std::string& r) {
    return r.find(key) != std::string::npos;
  });
}

// Each tile steps under its own lane, so policy events land on the tile
// that raised them whichever worker ran it, and the dtm.* counters the
// single-core System reports count on the die too.
TEST(Multicore, TileTraceIsWidthIndependent) {
  struct Traced {
    RunResult aggregate;
    std::map<std::string, std::vector<std::string>> lanes;
    std::uint64_t transitions = 0;
    std::uint64_t engagements = 0;
  };
  const auto run_at_width = [](std::size_t threads, bool traced) {
    SimConfig cfg = mc_config(4);
    cfg.multicore.threads = threads;
    cfg.multicore.workload_threads = 3;
    obs::tracer().clear();
    const std::uint64_t transitions = counter_value("dtm.dvs_transitions");
    const std::uint64_t engagements =
        counter_value("dtm.policy_engagements");
    if (traced) obs::Observability::instance().enable_all();
    MulticoreSystem system(hot_profile(), cfg, hyb_factory(cfg), "Hyb");
    Traced out{system.run().aggregate, {}, 0, 0};
    obs::Observability::instance().disable_all();
    out.lanes = sim_rows_by_lane();
    out.transitions = counter_value("dtm.dvs_transitions") - transitions;
    out.engagements = counter_value("dtm.policy_engagements") - engagements;
    obs::tracer().clear();
    return out;
  };
  const Traced one = run_at_width(1, true);
  const Traced four = run_at_width(4, true);
  EXPECT_EQ(one.lanes, four.lanes);
  for (const char* lane : {"crafty/Hyb/c0", "crafty/Hyb/c1", "crafty/Hyb/c2"}) {
    ASSERT_EQ(one.lanes.count(lane), 1u) << lane;
    EXPECT_TRUE(has_event(one.lanes.at(lane), "dvs_transition_start")) << lane;
    EXPECT_TRUE(has_event(one.lanes.at(lane), "policy_engage")) << lane;
  }
  EXPECT_GT(one.transitions, 0u);
  EXPECT_EQ(one.transitions, four.transitions);
  EXPECT_GT(one.engagements, 0u);
  EXPECT_EQ(one.engagements, four.engagements);
  // Tracing changes no result bit.
  const Traced plain = run_at_width(1, false);
  EXPECT_EQ(serialize_run_result(plain.aggregate),
            serialize_run_result(one.aggregate));
}

TEST(Multicore, AggregateMatchesSingleCoreShape) {
  SimConfig cfg = mc_config(2);
  MulticoreSystem system(hot_profile(), cfg, nullptr);
  const MulticoreResult r = system.run();
  EXPECT_EQ(r.aggregate.policy, "baseline");
  EXPECT_EQ(r.aggregate.cores, 2u);
  EXPECT_GE(r.aggregate.instructions, cfg.run_instructions);
  EXPECT_GT(r.aggregate.ipc, 0.5);
  EXPECT_GT(r.aggregate.mean_power_watts, 5.0);
  EXPECT_GT(r.aggregate.max_true_celsius, 40.0);
  EXPECT_GT(r.aggregate.core_temp_spread_celsius, 0.0);
  ASSERT_EQ(r.per_core.size(), 2u);
  EXPECT_GT(r.per_core[0].instructions, 0u);
  EXPECT_GT(r.per_core[1].instructions, 0u);
  // Tile-local clocks overshoot each barrier by less than one cycle, so
  // the per-tile wall integral differs from the master wall by O(1e-5).
  EXPECT_NEAR(r.per_core[0].occupied_fraction, 1.0, 1e-4);
}

TEST(Multicore, IdleTilesCommitNothing) {
  SimConfig cfg = mc_config(4);
  cfg.multicore.workload_threads = 2;
  MulticoreSystem system(hot_profile(), cfg, nullptr);
  const MulticoreResult r = system.run();
  ASSERT_EQ(r.per_core.size(), 4u);
  EXPECT_GT(r.per_core[0].instructions, 0u);
  EXPECT_GT(r.per_core[1].instructions, 0u);
  EXPECT_EQ(r.per_core[2].instructions, 0u);
  EXPECT_EQ(r.per_core[3].instructions, 0u);
  EXPECT_DOUBLE_EQ(r.per_core[2].occupied_fraction, 0.0);
  // Idle silicon is cooler than working silicon.
  EXPECT_LT(r.per_core[2].max_true_celsius, r.per_core[0].max_true_celsius);
}

TEST(Multicore, InvalidConfigsThrow) {
  SimConfig cfg = mc_config(2);
  cfg.multicore.cores = 0;
  EXPECT_THROW(MulticoreSystem(hot_profile(), cfg, nullptr),
               std::invalid_argument);
  cfg = mc_config(2);
  cfg.multicore.workload_threads = 3;
  EXPECT_THROW(MulticoreSystem(hot_profile(), cfg, nullptr),
               std::invalid_argument);
}

// --------------------------------------------------------- migration

/// A 4-core die with 2 threads peaks near 68 C, so the migration tests
/// lower the trigger below that to make the policy actually fire.
SimConfig migration_config() {
  SimConfig cfg = mc_config(4);
  cfg.multicore.workload_threads = 2;
  cfg.thresholds.trigger = util::Celsius(66.0);
  return cfg;
}

TEST(Multicore, MigrationMovesHotThreadToIdleTile) {
  SimConfig cfg = migration_config();
  cfg.multicore.migration = true;
  MulticoreSystem system(hot_profile(), cfg, nullptr);
  const MulticoreResult r = system.run();
  EXPECT_GT(r.aggregate.thread_migrations, 0u);
  EXPECT_EQ(r.aggregate.thread_migrations, r.migrations.size());
  std::uint64_t in = 0, out = 0;
  for (const CoreRunStats& s : r.per_core) {
    in += s.migrations_in;
    out += s.migrations_out;
  }
  EXPECT_EQ(in, r.migrations.size());
  EXPECT_EQ(out, r.migrations.size());
}

/// The migration property from ISSUE: an applied migration must never
/// make the die hotter than it was — post-migration Tmax is bounded by
/// pre-migration Tmax plus a small margin (one interval of flush energy
/// plus normal workload drift), with or without the budget arbiter.
TEST(Multicore, MigrationPropertyTmaxBounded) {
  constexpr double kBoundCelsius = 1.0;
  for (const double budget : {0.0, 30.0}) {
    SimConfig cfg = migration_config();
    cfg.multicore.migration = true;
    cfg.multicore.arbiter.die_budget = util::Watts(budget);
    MulticoreSystem system(hot_profile(), cfg, nullptr);
    const MulticoreResult r = system.run();
    EXPECT_GT(r.migrations.size(), 0u) << "budget=" << budget;
    for (const MigrationEvent& ev : r.migrations) {
      EXPECT_LE(ev.tmax_after_celsius,
                ev.tmax_before_celsius + kBoundCelsius)
          << "budget=" << budget << " t=" << ev.time_seconds;
      EXPECT_NE(ev.from, ev.to);
    }
  }
}

TEST(Multicore, MigrationCostSlowsButCoolsTheDie) {
  const SimConfig cfg = migration_config();
  const auto run_with_migration = [&cfg](bool on) {
    SimConfig c = cfg;
    c.multicore.migration = on;
    MulticoreSystem system(hot_profile(), c, nullptr);
    return system.run();
  };
  const MulticoreResult without = run_with_migration(false);
  const MulticoreResult with = run_with_migration(true);
  // Migration spreads the heat: the hottest block over the run drops.
  EXPECT_LT(with.aggregate.max_true_celsius,
            without.aggregate.max_true_celsius);
  // And it is not free: stall cycles stretch the measured window.
  EXPECT_GE(with.aggregate.wall_seconds, without.aggregate.wall_seconds);
}

// ----------------------------------------------------- budget arbiter
TEST(Multicore, BudgetArbiterCapsMeanPower) {
  SimConfig cfg = mc_config(4);
  const auto run_with_budget = [&cfg](double watts) {
    SimConfig c = cfg;
    c.multicore.arbiter.die_budget = util::Watts(watts);
    MulticoreSystem system(hot_profile(), c, nullptr);
    return system.run().aggregate;
  };
  const RunResult uncapped = run_with_budget(0.0);
  ASSERT_GT(uncapped.mean_power_watts, 10.0);
  // A cap well below the natural draw must engage and bring mean power
  // down toward it (the integral throttle converges, it does not clamp
  // instantaneously, so allow slack above the budget).
  const double cap = uncapped.mean_power_watts * 0.7;
  const RunResult capped = run_with_budget(cap);
  EXPECT_GT(capped.budget_throttled_fraction, 0.5);
  EXPECT_LT(capped.mean_power_watts, uncapped.mean_power_watts);
  EXPECT_LT(capped.mean_power_watts, cap * 1.15);
  EXPECT_GE(capped.wall_seconds, uncapped.wall_seconds);
  EXPECT_DOUBLE_EQ(uncapped.budget_throttled_fraction, 0.0);
}

TEST(Multicore, ArbiterComposesWithLocalPolicy) {
  // With both a local Hyb policy and a die budget, the effective gate is
  // the max of the two — the run must stay at least as throttled as the
  // policy-only run.
  SimConfig cfg = mc_config(4);
  const auto run = [&cfg](double watts) {
    SimConfig c = cfg;
    c.multicore.arbiter.die_budget = util::Watts(watts);
    MulticoreSystem system(hot_profile(), c, hyb_factory(c), "Hyb");
    return system.run().aggregate;
  };
  const RunResult policy_only = run(0.0);
  const RunResult both = run(14.0);
  EXPECT_GE(both.mean_gate_fraction, policy_only.mean_gate_fraction);
  EXPECT_LE(both.mean_power_watts, policy_only.mean_power_watts);
}

// ------------------------------------------------- per-core vs global
TEST(Multicore, GlobalDvsThrottlesWholeDie) {
  // Two threads on four tiles: with per-core DVS only the hot occupied
  // tiles slow down; one global domain drags every tile (including the
  // idle, cool ones) to the max requested level, so die-wide time at a
  // low level can only grow.
  SimConfig cfg = mc_config(4);
  cfg.multicore.workload_threads = 2;
  cfg.thresholds.trigger = util::Celsius(64.0);
  // A pure DVS policy isolates the domain question (Hyb would spend the
  // whole run inside its fetch-gating band at these temperatures).
  const auto run_with_domains = [&cfg](bool per_core) {
    SimConfig c = cfg;
    c.multicore.per_core_dvs = per_core;
    MulticoreSystem system(
        hot_profile(), c,
        [c] { return make_policy(PolicyKind::kDvs, PolicyParams{}, c); },
        "DVS");
    return system.run().aggregate;
  };
  const RunResult per_core = run_with_domains(true);
  const RunResult global = run_with_domains(false);
  EXPECT_GT(per_core.dvs_transitions, 0u);
  EXPECT_GE(global.dvs_low_fraction, per_core.dvs_low_fraction);
  // Keyed as distinct experiment points.
  SimConfig a = cfg, b = cfg;
  a.multicore.per_core_dvs = true;
  b.multicore.per_core_dvs = false;
  EXPECT_NE(config_hash(a), config_hash(b));
}

// ------------------------------------------------------ engine keying
TEST(Multicore, RunKeySeparatesCoreCountButNotWorkerWidth) {
  const SimConfig base = mc_config(2);
  SimConfig four = base;
  four.multicore.cores = 4;
  SimConfig wide = base;
  wide.multicore.threads = 8;
  const workload::WorkloadProfile p = hot_profile();
  const std::uint64_t k_base =
      run_point_key(p, PolicyKind::kHybrid, PolicyParams{}, base);
  EXPECT_NE(k_base,
            run_point_key(p, PolicyKind::kHybrid, PolicyParams{}, four));
  EXPECT_EQ(k_base,
            run_point_key(p, PolicyKind::kHybrid, PolicyParams{}, wide));
  EXPECT_NE(model_key(base), model_key(four));
  EXPECT_EQ(model_key(base), model_key(wide));
}

TEST(Multicore, RunResultRoundTripsThroughPersistentFormat) {
  SimConfig cfg = mc_config(2);
  cfg.multicore.migration = true;
  cfg.multicore.workload_threads = 1;
  MulticoreSystem system(hot_profile(), cfg, nullptr);
  const RunResult r = system.run().aggregate;
  RunResult decoded;
  ASSERT_TRUE(deserialize_run_result(serialize_run_result(r), decoded));
  EXPECT_EQ(util::diff_fields(decoded, r), "");
  EXPECT_EQ(decoded.cores, 2u);
}

// A tile tells its core the clock it runs at, so at f_nominal = 2 GHz an
// 80 ns miss costs 160 cycles from the first cycle in both engines, and
// the core config's standalone clock moves no bit of either.
TEST(TileClock, NominalFrequencyOfTheCoreConfigMovesNoBit) {
  for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
    SimConfig cfg = mc_config(cores);
    cfg.f_nominal = util::Hertz(2.0e9);
    cfg.warmup_instructions = 100'000;
    cfg.run_instructions = 200'000;
    cfg.multicore.workload_threads = cores == 1 ? 0 : 3;
    std::string bytes[2];
    for (int k = 0; k < 2; ++k) {
      cfg.core.nominal_frequency_hz = k == 0 ? 3.0e9 : 2.0e9;
      const RunResult r =
          cores == 1
              ? System(hot_profile(), cfg,
                       make_policy(PolicyKind::kHybrid, PolicyParams{}, cfg))
                    .run()
              : MulticoreSystem(hot_profile(), cfg, hyb_factory(cfg))
                    .run()
                    .aggregate;
      bytes[k] = serialize_run_result(r);
    }
    EXPECT_EQ(bytes[0], bytes[1]) << cores << " core(s)";
  }
}

TEST(Multicore, ExperimentRunnerRoutesMulticorePoints) {
  // End-to-end through the memoizing engine: an 8-core Hyb point with
  // migration and a die budget against its same-die baseline.
  SimConfig cfg = mc_config(8);
  cfg.warmup_instructions = 200'000;
  cfg.run_instructions = 300'000;
  cfg.multicore.workload_threads = 6;
  cfg.multicore.migration = true;
  cfg.multicore.arbiter.die_budget = util::Watts(40.0);
  ExperimentRunner runner(cfg);
  const ExperimentResult r =
      runner.run(hot_profile(), PolicyKind::kHybrid, PolicyParams{}, cfg);
  EXPECT_EQ(r.dtm.cores, 8u);
  EXPECT_EQ(r.baseline.cores, 8u);
  EXPECT_EQ(r.dtm.policy, "Hyb");
  EXPECT_EQ(r.baseline.policy, "baseline");
  // The baseline shares the die shape but runs unmanaged.
  EXPECT_EQ(r.baseline.thread_migrations, 0u);
  EXPECT_DOUBLE_EQ(r.baseline.budget_throttled_fraction, 0.0);
  EXPECT_GE(r.slowdown, 1.0 - 1e-9);
  // Resubmission is a cache hit, not a recompute.
  const ExperimentResult again =
      runner.run(hot_profile(), PolicyKind::kHybrid, PolicyParams{}, cfg);
  EXPECT_EQ(util::diff_fields(again.dtm, r.dtm), "");
  EXPECT_GT(runner.cache_stats().hits, 0u);
}

}  // namespace
}  // namespace hydra::sim
