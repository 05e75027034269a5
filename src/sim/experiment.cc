#include "sim/experiment.h"

#include <cstdlib>
#include <stdexcept>

#include "floorplan/ev7.h"
#include "obs/obs.h"
#include "sim/multicore.h"
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

power::DvsLadder make_ladder(const SimConfig& cfg) {
  const power::VoltageFrequencyCurve curve(cfg.v_nominal, cfg.f_nominal,
                                           cfg.v_threshold, cfg.vf_alpha);
  return power::DvsLadder(curve, cfg.dvs_steps, cfg.v_low_fraction);
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

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

}  // namespace

SimConfig default_sim_config() {
  SimConfig cfg;
  cfg.run_instructions =
      env_u64("HYDRA_RUN_INSTRUCTIONS", cfg.run_instructions);
  cfg.warmup_instructions =
      env_u64("HYDRA_WARMUP_INSTRUCTIONS", cfg.warmup_instructions);
  return cfg;
}

// ---------------------------------------------------------------------------
// Content hashing. Every field of every sub-config is fed explicitly
// (HashSink never sees raw struct bytes, which would hash padding). When
// adding a config field, add it here — the determinism test exercises
// key separation, and a missed field shows up as a stale cache hit.

namespace {

void hash_package(util::HashSink& h, const thermal::Package& p) {
  h.f64(p.die_thickness_m)
      .f64(p.k_silicon)
      .f64(p.c_silicon)
      .f64(p.tim_thickness_m)
      .f64(p.k_tim)
      .f64(p.spreader_side_m)
      .f64(p.spreader_thickness_m)
      .f64(p.k_copper)
      .f64(p.c_copper)
      .f64(p.sink_side_m)
      .f64(p.sink_thickness_m)
      .f64(p.k_sink)
      .f64(p.c_sink)
      .f64(p.r_convec)
      .f64(p.ambient);
}

void hash_cache_config(util::HashSink& h, const arch::CacheConfig& c) {
  h.u64(c.size_bytes).u64(c.line_bytes).u64(c.associativity);
}

void hash_core(util::HashSink& h, const arch::CoreConfig& c) {
  h.i64(c.fetch_width)
      .i64(c.rename_width)
      .i64(c.issue_width)
      .i64(c.commit_width)
      .i64(c.rob_entries)
      .i64(c.frontend_entries)
      .i64(c.int_queue_entries)
      .i64(c.fp_queue_entries)
      .i64(c.ls_queue_entries)
      .i64(c.int_alu_units)
      .i64(c.int_mul_units)
      .i64(c.fp_add_units)
      .i64(c.fp_mul_units)
      .i64(c.mem_ports)
      .i64(c.int_alu_latency)
      .i64(c.int_mul_latency)
      .i64(c.fp_add_latency)
      .i64(c.fp_mul_latency)
      .i64(c.l1_hit_latency)
      .i64(c.l2_hit_latency)
      .i64(c.tlb_miss_penalty)
      .i64(c.mispredict_penalty)
      .f64(c.memory_latency_ns);
  hash_cache_config(h, c.icache);
  hash_cache_config(h, c.dcache);
  hash_cache_config(h, c.l2);
  h.u64(static_cast<std::uint64_t>(c.predictor))
      .i64(c.bpred_index_bits)
      .i64(c.bpred_history_bits)
      .i64(c.tournament.local_history_bits)
      .i64(c.tournament.local_table_bits)
      .i64(c.tournament.global_bits)
      .i64(c.mshr_entries)
      .boolean(c.store_forwarding)
      .f64(c.nominal_frequency_hz);
}

void hash_sensor(util::HashSink& h, const sensor::SensorConfig& s) {
  h.f64(s.noise_sigma)
      .f64(s.quantization)
      .f64(s.max_offset)
      .f64(s.sample_rate)
      .u64(s.seed)
      .boolean(s.enable_noise)
      .boolean(s.enable_offset);
}

void hash_campaign(util::HashSink& h, const fault::FaultCampaign& c) {
  h.u64(c.seed()).u64(c.events().size());
  for (const fault::FaultEvent& e : c.events()) {
    h.u64(e.sensor)
        .u64(static_cast<std::uint64_t>(e.kind))
        .f64(e.start_seconds)
        .f64(e.duration_seconds)
        .f64(e.magnitude)
        .f64(e.probability);
  }
}

void hash_multicore(util::HashSink& h, const SimConfig::MulticoreConfig& m) {
  // Deliberately NOT hashed: m.threads. It is an execution-width knob —
  // results are bit-identical at any value (multicore_test asserts it),
  // exactly like the experiment pool's width, so hashing it would both
  // fragment the cache and let the determinism test pass vacuously via
  // cache hits.
  h.u64(m.cores)
      .u64(m.workload_threads)
      .boolean(m.per_core_dvs)
      .boolean(m.migration)
      .f64(m.migration_policy.interval)
      .u64(m.migration_policy.cost_cycles)
      .f64(m.migration_policy.flush_energy)
      .f64(m.migration_policy.margin)
      .f64(m.migration_policy.trigger)
      .f64(m.arbiter.die_budget)
      .f64(m.arbiter.gain)
      .f64(m.arbiter.release)
      .f64(m.arbiter.max_gate_fraction)
      .u64(m.arbiter.dvs_debounce_updates);
}

void hash_config_into(util::HashSink& h, const SimConfig& cfg) {
  h.f64(cfg.v_nominal)
      .f64(cfg.f_nominal)
      .f64(cfg.v_threshold)
      .f64(cfg.vf_alpha)
      .f64(cfg.v_low_fraction)
      .u64(cfg.dvs_steps)
      .f64(cfg.dvs_switch_time)
      .boolean(cfg.dvs_stall)
      .f64(cfg.thresholds.trigger)
      .f64(cfg.thresholds.emergency)
      .f64(cfg.clock_gate_quantum)
      .i64(cfg.thermal_interval_cycles)
      .f64(cfg.time_scale)
      .u64(cfg.warmup_instructions)
      .u64(cfg.run_instructions)
      .u64(cfg.activity_probe_instructions)
      // Fast-path knobs are hashed even though both are result-invariant
      // (bulk_idle_skip is bit-identical; fused_thermal agrees to 1e-9):
      // the memo cache must never serve a result computed under a
      // different numerical path than the caller asked for.
      .boolean(cfg.bulk_idle_skip)
      .boolean(cfg.fused_thermal);
  hash_package(h, cfg.package);
  hash_sensor(h, cfg.sensor);
  hash_campaign(h, cfg.fault_campaign);
  hash_core(h, cfg.core);
  hash_multicore(h, cfg.multicore);
}

void hash_profile(util::HashSink& h,
                  const workload::WorkloadProfile& p) {
  h.str(p.name)
      .u64(p.seed)
      .f64(p.frac_int_alu)
      .f64(p.frac_int_mul)
      .f64(p.frac_fp_add)
      .f64(p.frac_fp_mul)
      .f64(p.frac_load)
      .f64(p.frac_store)
      .f64(p.frac_branch)
      .f64(p.mean_dep_distance)
      .i64(p.max_dep_distance)
      .f64(p.frac_two_src)
      .f64(p.hard_branch_fraction)
      .u64(p.inst_footprint)
      .u64(p.data_hot_footprint)
      .u64(p.data_warm_footprint)
      .f64(p.warm_access_fraction)
      .f64(p.stream_access_fraction)
      .u64(p.phases.size());
  for (const workload::PhaseSpec& ph : p.phases) {
    h.u64(ph.length_instructions).f64(ph.ilp_scale).f64(ph.mem_scale);
  }
}

void hash_hybrid(util::HashSink& h, const core::HybridConfig& c) {
  h.f64(c.crossover_gate_fraction)
      .f64(c.kp)
      .f64(c.ki)
      .f64(c.crossover_margin)
      .f64(c.dvs_threshold_offset)
      .f64(c.hysteresis)
      .u64(c.release_filter_samples)
      .u64(c.escalate_filter_samples);
}

void hash_params(util::HashSink& h, const PolicyParams& p) {
  h.u64(static_cast<std::uint64_t>(p.dvs.mode))
      .f64(p.dvs.kp)
      .f64(p.dvs.ki)
      .u64(p.dvs.raise_filter_samples)
      .f64(p.dvs.hysteresis)
      .u64(static_cast<std::uint64_t>(p.fetch_gating.mode))
      .f64(p.fetch_gating.ki)
      .f64(p.fetch_gating.kp)
      .f64(p.fetch_gating.max_gate_fraction)
      .f64(p.fetch_gating.fixed_gate_fraction)
      .f64(p.clock_gating.hysteresis);
  hash_hybrid(h, p.hybrid);
  hash_hybrid(h, p.proactive.hybrid);
  h.f64(p.proactive.horizon)
      .f64(p.proactive.slope_filter_alpha)
      .f64(p.local_toggle.ki)
      .f64(p.local_toggle.kp)
      .f64(p.local_toggle.max_gate_fraction)
      .f64(p.fallback.ki)
      .f64(p.fallback.kp)
      .f64(p.fallback.max_gate_fraction)
      .f64(p.fallback.emergency_margin)
      .u64(p.fallback.release_filter_samples)
      .f64(p.fallback.hysteresis)
      .boolean(p.guarded);
  const core::GuardedPolicyConfig& g = p.guard;
  h.f64(g.min_plausible)
      .f64(g.max_plausible)
      .f64(g.max_rate)
      .f64(g.noise_margin)
      .u64(g.frozen_samples)
      .u64(g.learn_samples)
      .f64(g.deviation_alpha)
      .f64(g.drift_cap)
      .u64(g.suspect_samples)
      .f64(g.substitution_margin)
      .f64(g.recovery_band)
      .u64(g.recovery_samples)
      .u64(g.backoff_max_factor)
      .f64(g.failsafe_lost_fraction)
      .u64(g.failsafe_release_samples)
      .f64(g.pessimism_bias);
}

}  // namespace

std::uint64_t config_hash(const SimConfig& cfg) {
  util::HashSink h;
  hash_config_into(h, cfg);
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
  hash_profile(h, profile);
  h.u64(static_cast<std::uint64_t>(kind));
  hash_params(h, params);
  hash_config_into(h, cfg);
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
