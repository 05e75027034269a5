// Parallel experiment engine: determinism across pool widths, cache-key
// separation, config-keyed baselines, memoization accounting, and
// supervision that leaves results untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "util/fields.h"
#include "util/thread_pool.h"

namespace hydra::sim {
namespace {

/// Abbreviated run so the engine tests stay fast; long enough that the
/// policies actually throttle.
SimConfig short_config() {
  SimConfig cfg = default_sim_config();
  cfg.run_instructions = 60'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

// The engine's core guarantee: results are bit-identical at any pool
// width, because each System run is internally deterministic and futures
// are joined by submission index, never completion order.
TEST(EngineDeterminism, SuiteIdenticalAcrossPoolWidths) {
  const SimConfig cfg = short_config();

  util::ThreadPool serial(1);
  util::ThreadPool wide(8);
  ExperimentRunner serial_runner(cfg, &serial);
  ExperimentRunner wide_runner(cfg, &wide);
  ASSERT_EQ(serial_runner.threads(), 1u);
  ASSERT_EQ(wide_runner.threads(), 8u);

  std::vector<SuiteSpec> specs;
  specs.push_back({PolicyKind::kHybrid, {}, cfg});
  specs.push_back({PolicyKind::kDvs, {}, cfg});

  const std::vector<SuiteResult> a = serial_runner.run_suites(specs);
  const std::vector<SuiteResult> b = wide_runner.run_suites(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].mean_slowdown, b[s].mean_slowdown);
    EXPECT_EQ(a[s].ci99_half_width, b[s].ci99_half_width);
    ASSERT_EQ(a[s].per_benchmark.size(), b[s].per_benchmark.size());
    for (std::size_t i = 0; i < a[s].per_benchmark.size(); ++i) {
      EXPECT_EQ(a[s].per_benchmark[i].slowdown, b[s].per_benchmark[i].slowdown);
      EXPECT_EQ(util::diff_fields(a[s].per_benchmark[i].dtm,
                                  b[s].per_benchmark[i].dtm),
                "");
      EXPECT_EQ(util::diff_fields(a[s].per_benchmark[i].baseline,
                                  b[s].per_benchmark[i].baseline),
                "");
    }
  }
}

// The run key covers the policy kind and the profile as well as the
// config; FieldKeys.EveryVisitedLeafMovesTheRunKey (fields_test) moves
// every config, parameter and profile field one at a time.
TEST(EngineCacheKey, DistinguishesConfigs) {
  const workload::WorkloadProfile profile = workload::spec2000_profile("gzip");
  const SimConfig base = short_config();
  const std::uint64_t k0 =
      run_point_key(profile, PolicyKind::kDvs, {}, base);
  EXPECT_EQ(k0, run_point_key(profile, PolicyKind::kDvs, {}, base));
  EXPECT_NE(k0, run_point_key(profile, PolicyKind::kHybrid, {}, base));

  PolicyParams guarded;
  guarded.guarded = true;
  EXPECT_NE(k0, run_point_key(profile, PolicyKind::kDvs, guarded, base));

  const workload::WorkloadProfile other =
      workload::spec2000_profile("crafty");
  EXPECT_NE(k0, run_point_key(other, PolicyKind::kDvs, {}, base));
}

// Baselines are keyed by the *normalised* config: thermally relevant
// changes (package) get their own baseline, while DTM-only knobs (DVS
// ladder shape) share one — they cannot affect a no-policy run.
TEST(EngineBaseline, KeyedByConfigHash) {
  const workload::WorkloadProfile profile = workload::spec2000_profile("gzip");
  const SimConfig base = short_config();

  ExperimentRunner runner(base);
  const RunResult& b0 = runner.baseline(profile, base);

  SimConfig other_ladder = base;
  other_ladder.dvs_steps = 10;
  other_ladder.dvs_stall = !base.dvs_stall;
  const RunResult& b_ladder = runner.baseline(profile, other_ladder);
  EXPECT_EQ(&b0, &b_ladder) << "DTM-only knobs must share the baseline";

  SimConfig hot = base;
  hot.package.ambient += util::CelsiusDelta(5.0);
  const RunResult& b_hot = runner.baseline(profile, hot);
  EXPECT_NE(&b0, &b_hot);
  EXPECT_GT(b_hot.max_true_celsius, b0.max_true_celsius);

  // Stale-baseline regression: the old cache keyed on profile name only
  // and would have returned b0 here.
  EXPECT_NE(config_hash(baseline_config(base)),
            config_hash(baseline_config(hot)));
  EXPECT_EQ(config_hash(baseline_config(base)),
            config_hash(baseline_config(other_ladder)));
}

// Repeating a point must hit the memo, and the shared baseline is
// computed once per profile no matter how many policies reference it.
TEST(EngineMemoization, RepeatedPointsHitCache) {
  const SimConfig cfg = short_config();
  const workload::WorkloadProfile profile = workload::spec2000_profile("art");

  util::ThreadPool pool(2);
  ExperimentRunner runner(cfg, &pool);

  const ExperimentResult first = runner.run(profile, PolicyKind::kDvs, {}, cfg);
  const RunCache::Stats after_first = runner.cache_stats();
  EXPECT_EQ(after_first.misses, 2u);  // DTM run + its baseline

  const ExperimentResult second =
      runner.run(profile, PolicyKind::kDvs, {}, cfg);
  const RunCache::Stats after_second = runner.cache_stats();
  EXPECT_EQ(after_second.misses, 2u) << "repeat must not recompute";
  EXPECT_GE(after_second.hits, 2u);

  EXPECT_EQ(first.slowdown, second.slowdown);
  EXPECT_EQ(util::diff_fields(first.dtm, second.dtm), "");

  // A different policy over the same profile reuses the baseline.
  runner.run(profile, PolicyKind::kFetchGating, {}, cfg);
  EXPECT_EQ(runner.cache_stats().misses, 3u);
}

// The process-wide model cache deduplicates the thermal model: one entry
// per (package, time_scale), shared by every config that differs only in
// non-thermal fields.
TEST(EngineModelCache, OneModelPerPackage) {
  ModelCache cache;
  SimConfig a = short_config();
  auto m0 = cache.get(a);
  SimConfig b = a;
  b.dvs_steps = 7;
  b.run_instructions *= 2;
  auto m1 = cache.get(b);
  EXPECT_EQ(m0.get(), m1.get());
  EXPECT_EQ(cache.size(), 1u);

  SimConfig c = a;
  c.package.r_convec *= 2.0;
  auto m2 = cache.get(c);
  EXPECT_NE(m0.get(), m2.get());
  EXPECT_EQ(cache.size(), 2u);

  SimConfig bad = a;
  bad.time_scale = 0.0;
  EXPECT_THROW(cache.get(bad), std::invalid_argument);
}

// Observability is strictly read-only: enabling tracing + metrics must
// not perturb a single bit of the sweep results (fresh runners on both
// sides so memoization cannot mask a divergence).
TEST(EngineObservability, TracingDoesNotChangeResults) {
  const SimConfig cfg = short_config();
  std::vector<PointSpec> points;
  for (const char* bench : {"gzip", "crafty"}) {
    points.push_back(
        {workload::spec2000_profile(bench), PolicyKind::kHybrid, {}, cfg});
    points.push_back(
        {workload::spec2000_profile(bench), PolicyKind::kDvs, {}, cfg});
  }

  obs::Observability::instance().disable_all();
  ExperimentRunner plain_runner(cfg);
  const std::vector<ExperimentResult> plain = plain_runner.run_points(points);

  obs::Observability::instance().enable_all();
  ExperimentRunner traced_runner(cfg);
  const std::vector<ExperimentResult> traced =
      traced_runner.run_points(points);
  obs::Observability::instance().disable_all();

  // The traced sweep actually recorded something (per-run spans at
  // minimum, DTM events for the throttling policies).
  EXPECT_GT(obs::tracer().size(), 0u);
  obs::tracer().clear();

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].slowdown, traced[i].slowdown);
    EXPECT_EQ(util::diff_fields(plain[i].dtm, traced[i].dtm), "");
    EXPECT_EQ(util::diff_fields(plain[i].baseline, traced[i].baseline), "");
  }
}

// A per-job deadline is supervision, not an input: the same sweep under
// a generous timeout must match an unsupervised runner byte for byte.
// (The suite name dates from the lockstep batched sweep, which supervised
// jobs bypassed; every run_points job now takes that serial path.)
TEST(BatchedSweep, SupervisedRunsStaySerial) {
  const SimConfig cfg = short_config();
  std::vector<PointSpec> points;
  for (const char* bench : {"gzip", "crafty"}) {
    points.push_back(
        {workload::spec2000_profile(bench), PolicyKind::kHybrid, {}, cfg});
  }

  util::ThreadPool pool(2);
  ExperimentRunner plain_runner(cfg, &pool);
  ExperimentRunner supervised_runner(cfg, &pool);
  supervised_runner.set_job_timeout(util::Seconds(300.0));

  const std::vector<ExperimentResult> plain = plain_runner.run_points(points);
  const std::vector<ExperimentResult> supervised =
      supervised_runner.run_points(points);
  EXPECT_EQ(supervised_runner.cache_stats().failures, 0u);

  ASSERT_EQ(plain.size(), supervised.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].slowdown, supervised[i].slowdown);
    EXPECT_EQ(util::diff_fields(plain[i].dtm, supervised[i].dtm), "");
    EXPECT_EQ(util::diff_fields(plain[i].baseline, supervised[i].baseline), "");
  }
}

}  // namespace
}  // namespace hydra::sim
