#include "sim/experiment.h"

#include <stdexcept>
#include <string>

#include "floorplan/ev7.h"
#include "obs/obs.h"
#include "sim/multicore.h"
#include "util/config.h"
#include "util/hash.h"
#include "util/stats.h"

namespace hydra::sim {

std::string policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone:
      return "baseline";
    case PolicyKind::kDvs:
      return "DVS";
    case PolicyKind::kFetchGating:
      return "FG";
    case PolicyKind::kFixedFetchGating:
      return "FG-fixed";
    case PolicyKind::kClockGating:
      return "ClockGate";
    case PolicyKind::kPiHybrid:
      return "PI-Hyb";
    case PolicyKind::kHybrid:
      return "Hyb";
    case PolicyKind::kProactiveHybrid:
      return "Pro-Hyb";
    case PolicyKind::kLocalToggle:
      return "LocalToggle";
    case PolicyKind::kFallback:
      return "Fallback";
  }
  return "?";
}

std::vector<std::vector<std::size_t>> sensor_adjacency() {
  const floorplan::Floorplan fp = floorplan::ev7_floorplan();
  std::vector<std::vector<std::size_t>> neighbors(fp.size());
  for (const floorplan::Adjacency& adj : fp.adjacencies()) {
    neighbors[adj.a].push_back(adj.b);
    neighbors[adj.b].push_back(adj.a);
  }
  return neighbors;
}

std::vector<std::string_view> sensor_names() {
  std::vector<std::string_view> names;
  names.reserve(floorplan::kNumBlocks);
  for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
    names.push_back(
        floorplan::block_name(static_cast<floorplan::BlockId>(i)));
  }
  return names;
}

namespace {

std::unique_ptr<core::DtmPolicy> make_base_policy(PolicyKind kind,
                                                  const PolicyParams& params,
                                                  const SimConfig& cfg) {
  // Integral gains are specified in paper-time (deg C * s); under time
  // acceleration every thermal time constant shrinks by time_scale, so
  // the gains scale up by the same factor to keep the closed-loop
  // dynamics dimensionless-identical (DESIGN.md).
  const double ts = cfg.time_scale;
  switch (kind) {
    case PolicyKind::kNone:
      return nullptr;
    case PolicyKind::kDvs: {
      core::DvsPolicyConfig dvs = params.dvs;
      dvs.ki *= ts;
      return std::make_unique<core::DvsPolicy>(make_ladder(cfg),
                                               cfg.thresholds, dvs);
    }
    case PolicyKind::kFetchGating: {
      core::FetchGatingConfig fg = params.fetch_gating;
      fg.mode = core::FetchGatingConfig::Mode::kIntegral;
      fg.ki *= ts;
      return std::make_unique<core::FetchGatingPolicy>(cfg.thresholds, fg);
    }
    case PolicyKind::kFixedFetchGating: {
      core::FetchGatingConfig fg = params.fetch_gating;
      fg.mode = core::FetchGatingConfig::Mode::kFixed;
      return std::make_unique<core::FetchGatingPolicy>(cfg.thresholds, fg);
    }
    case PolicyKind::kClockGating:
      return std::make_unique<core::ClockGatingPolicy>(cfg.thresholds,
                                                       params.clock_gating);
    case PolicyKind::kPiHybrid: {
      core::HybridConfig hy = params.hybrid;
      hy.ki *= ts;
      return std::make_unique<core::PiHybridPolicy>(make_ladder(cfg),
                                                    cfg.thresholds, hy);
    }
    case PolicyKind::kHybrid:
      return std::make_unique<core::HybridPolicy>(
          make_ladder(cfg), cfg.thresholds, params.hybrid);
    case PolicyKind::kProactiveHybrid: {
      core::ProactiveConfig pro = params.proactive;
      // The horizon is paper-time like every other duration: compress it.
      pro.horizon /= ts;
      return std::make_unique<core::ProactiveHybridPolicy>(
          make_ladder(cfg), cfg.thresholds, pro);
    }
    case PolicyKind::kLocalToggle: {
      core::LocalToggleConfig lt = params.local_toggle;
      lt.ki *= ts;
      return std::make_unique<core::LocalTogglePolicy>(cfg.thresholds, lt);
    }
    case PolicyKind::kFallback: {
      core::FallbackConfig fb = params.fallback;
      fb.ki *= ts;
      return std::make_unique<core::FallbackPolicy>(make_ladder(cfg),
                                                    cfg.thresholds, fb);
    }
  }
  throw std::invalid_argument("unknown policy kind");
}

}  // namespace

std::unique_ptr<core::DtmPolicy> make_policy(PolicyKind kind,
                                             const PolicyParams& params,
                                             const SimConfig& cfg) {
  std::unique_ptr<core::DtmPolicy> base = make_base_policy(kind, params, cfg);
  if (!params.guarded) return base;
  core::GuardedPolicyConfig guard = params.guard;
  // Like controller gains, the rate limit is specified in paper-time.
  guard.max_rate *= cfg.time_scale;
  // Without sensor noise a steady temperature produces bit-identical
  // readings, so the frozen-reading detector must stand down.
  if (!cfg.sensor.enable_noise || cfg.sensor.noise_sigma.value() <= 0.0) {
    guard.frozen_samples = 0;
  }
  return std::make_unique<core::GuardedPolicy>(
      std::move(base), cfg.thresholds, sensor_adjacency(), guard);
}

SimConfig default_sim_config() {
  SimConfig cfg;
  cfg.run_instructions =
      util::env_u64("HYDRA_RUN_INSTRUCTIONS", cfg.run_instructions);
  cfg.warmup_instructions =
      util::env_u64("HYDRA_WARMUP_INSTRUCTIONS", cfg.warmup_instructions);
  return cfg;
}

// Cache keys hash every visited field by type (util/fields.h); HashSink
// never sees raw struct bytes, which would hash padding.
std::uint64_t config_hash(const SimConfig& cfg) {
  util::HashSink h;
  util::encode_fields(h, cfg);
  return h.digest();
}

SimConfig baseline_config(const SimConfig& cfg) {
  const SimConfig defaults{};
  SimConfig base = cfg;
  base.dvs_steps = defaults.dvs_steps;
  base.v_low_fraction = defaults.v_low_fraction;
  base.dvs_switch_time = defaults.dvs_switch_time;
  base.dvs_stall = defaults.dvs_stall;
  base.clock_gate_quantum = defaults.clock_gate_quantum;
  // The die shape (cores, thread placement) is part of the experiment
  // point; the die-level DTM mechanisms are not — a baseline is the same
  // die running unmanaged.
  base.multicore.per_core_dvs = defaults.multicore.per_core_dvs;
  base.multicore.migration = defaults.multicore.migration;
  base.multicore.migration_policy = defaults.multicore.migration_policy;
  base.multicore.arbiter = defaults.multicore.arbiter;
  return base;
}

std::uint64_t run_point_key(const workload::WorkloadProfile& profile,
                            PolicyKind kind, const PolicyParams& params,
                            const SimConfig& cfg) {
  util::HashSink h;
  h.str("hydra-run-v1");
  util::encode_fields(h, profile);
  util::encode_fields(h, kind);
  util::encode_fields(h, params);
  util::encode_fields(h, cfg);
  return h.digest();
}

// ---------------------------------------------------------------------------

std::vector<double> SuiteResult::slowdowns() const {
  std::vector<double> out;
  out.reserve(per_benchmark.size());
  for (const ExperimentResult& r : per_benchmark) out.push_back(r.slowdown);
  return out;
}

ExperimentRunner::ExperimentRunner(SimConfig base_cfg, util::ThreadPool* pool)
    : base_cfg_(std::move(base_cfg)),
      pool_(pool != nullptr ? pool : &util::ThreadPool::global()) {}

RunCache::Future ExperimentRunner::submit_baseline(
    const workload::WorkloadProfile& profile, const SimConfig& cfg) {
  SimConfig bcfg = baseline_config(cfg);
  const std::uint64_t key =
      run_point_key(profile, PolicyKind::kNone, PolicyParams{}, bcfg);
  return cache_.submit(
      key, *pool_,
      [profile, bcfg = std::move(bcfg)](const util::CancelToken& token) {
        // Per-job profiling span on this worker's wall-clock lane, so the
        // trace shows pool occupancy per thread.
        const obs::ScopedSpan span(obs::tracer(), "engine", "run",
                                   profile.name + "/baseline");
        if (bcfg.multicore.cores > 1) {
          MulticoreSystem system(profile, bcfg, nullptr, "baseline");
          return system.run(&token).aggregate;
        }
        System system(profile, bcfg, nullptr);
        return system.run(&token);
      },
      job_opts_);
}

RunCache::Future ExperimentRunner::submit_run(
    const workload::WorkloadProfile& profile, PolicyKind kind,
    const PolicyParams& params, const SimConfig& cfg) {
  // A plain no-DTM point IS the baseline: route it through the baseline
  // key so the two share one cache entry. (kNone with `guarded` builds a
  // pure supervisor, which is a real policy — it takes the normal path.)
  if (kind == PolicyKind::kNone && !params.guarded) {
    return submit_baseline(profile, cfg);
  }
  const std::uint64_t key = run_point_key(profile, kind, params, cfg);
  return cache_.submit(
      key, *pool_,
      [profile, kind, params, cfg](const util::CancelToken& token) {
        const obs::ScopedSpan span(
            obs::tracer(), "engine", "run",
            profile.name + "/" + policy_kind_name(kind));
        if (cfg.multicore.cores > 1) {
          // Each tile gets its own equivalently configured policy
          // instance (per-tile controller state must not be shared).
          MulticoreSystem system(
              profile, cfg,
              [kind, params, cfg] { return make_policy(kind, params, cfg); },
              policy_kind_name(kind));
          return system.run(&token).aggregate;
        }
        System system(profile, cfg, make_policy(kind, params, cfg));
        return system.run(&token);
      },
      job_opts_);
}

const RunResult& ExperimentRunner::baseline(
    const workload::WorkloadProfile& profile) {
  return baseline(profile, base_cfg_);
}

const RunResult& ExperimentRunner::baseline(
    const workload::WorkloadProfile& profile, const SimConfig& cfg) {
  // The cache never evicts, so the pointee address is stable for the
  // runner's lifetime.
  return *submit_baseline(profile, cfg).get();
}

std::vector<ExperimentResult> ExperimentRunner::run_points(
    const std::vector<PointSpec>& points) {
  // Submission order (and therefore result order) is the input order;
  // completion order is irrelevant because each future is joined by
  // index. Each System run is internally deterministic and the memoized
  // runs are keyed by content, so any pool width yields identical bits.
  std::vector<RunCache::Future> dtm_futures;
  std::vector<RunCache::Future> base_futures;
  dtm_futures.reserve(points.size());
  base_futures.reserve(points.size());
  for (const PointSpec& p : points) {
    dtm_futures.push_back(submit_run(p.profile, p.kind, p.params, p.cfg));
    base_futures.push_back(submit_baseline(p.profile, p.cfg));
  }
  std::vector<ExperimentResult> results(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExperimentResult& r = results[i];
    r.dtm = *dtm_futures[i].get();
    r.baseline = *base_futures[i].get();
    r.slowdown = r.baseline.wall_seconds > 0.0
                     ? r.dtm.wall_seconds / r.baseline.wall_seconds
                     : 1.0;
  }
  return results;
}

ExperimentResult ExperimentRunner::run(
    const workload::WorkloadProfile& profile, PolicyKind kind,
    const PolicyParams& params, const SimConfig& cfg) {
  return run_points({PointSpec{profile, kind, params, cfg}}).front();
}

ExperimentResult ExperimentRunner::run(
    const workload::WorkloadProfile& profile, PolicyKind kind,
    const PolicyParams& params) {
  return run(profile, kind, params, base_cfg_);
}

std::vector<SuiteResult> ExperimentRunner::run_suites(
    const std::vector<SuiteSpec>& specs) {
  const std::vector<workload::WorkloadProfile> profiles =
      workload::spec2000_hot_profiles();
  std::vector<PointSpec> points;
  points.reserve(specs.size() * profiles.size());
  for (const SuiteSpec& s : specs) {
    for (const workload::WorkloadProfile& profile : profiles) {
      points.push_back(PointSpec{profile, s.kind, s.params, s.cfg});
    }
  }
  const std::vector<ExperimentResult> flat = run_points(points);

  std::vector<SuiteResult> suites;
  suites.reserve(specs.size());
  std::size_t next = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    SuiteResult suite;
    util::RunningStats stats;
    for (std::size_t b = 0; b < profiles.size(); ++b) {
      suite.per_benchmark.push_back(flat[next++]);
      stats.add(suite.per_benchmark.back().slowdown);
    }
    suite.mean_slowdown = stats.mean();
    const std::vector<double> xs = suite.slowdowns();
    suite.ci99_half_width = util::confidence_half_width_99(xs);
    suites.push_back(std::move(suite));
  }
  return suites;
}

SuiteResult ExperimentRunner::run_suite(PolicyKind kind,
                                        const PolicyParams& params,
                                        const SimConfig& cfg) {
  return run_suites({SuiteSpec{kind, params, cfg}}).front();
}

SuiteResult ExperimentRunner::run_suite(PolicyKind kind,
                                        const PolicyParams& params) {
  return run_suite(kind, params, base_cfg_);
}

}  // namespace hydra::sim
