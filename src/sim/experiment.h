// Experiment harness: policy construction, baseline caching, slowdown
// measurement, and benchmark-suite aggregation — the machinery behind
// every figure and table reproduction (see DESIGN.md experiment index).
//
// The runner is a parallel engine: every (profile, policy, config)
// point — including the shared no-DTM baselines — is an independent job
// on a work-stealing thread pool, memoized in a RunCache keyed by a
// content hash of its full inputs. Results are joined in submission
// order, never completion order, and each System run is internally
// deterministic, so any thread count produces bit-identical output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/clock_gating_policy.h"
#include "core/dvs_policy.h"
#include "core/fetch_gating_policy.h"
#include "core/guarded_policy.h"
#include "core/hybrid_policy.h"
#include "core/fallback_policy.h"
#include "core/local_toggle_policy.h"
#include "core/proactive_policy.h"
#include "sim/run_cache.h"
#include "sim/system.h"
#include "util/fields.h"
#include "util/thread_pool.h"
#include "workload/spec_profiles.h"

namespace hydra::sim {

enum class PolicyKind {
  kNone,             ///< baseline: no DTM
  kDvs,              ///< stand-alone DVS
  kFetchGating,      ///< integral-controlled fetch gating
  kFixedFetchGating, ///< fixed-duty fetch gating (Figure 3b sweeps)
  kClockGating,      ///< Pentium-4-style global clock gating
  kPiHybrid,         ///< PI-Hyb
  kHybrid,           ///< Hyb (controller-free)
  kProactiveHybrid,  ///< extension: slope-predictive Hyb (paper future work)
  kLocalToggle,      ///< issue-domain toggling (paper Section 2, [17])
  kFallback,         ///< DEETM-style fallback hierarchy (paper Section 2, [8])
};

std::string policy_kind_name(PolicyKind kind);

/// Tunables for make_policy. Defaults reproduce the paper's headline
/// configuration: binary DVS, integral fetch gating capped at 2/3, and
/// hybrid crossover at gating fraction 1/3.
struct PolicyParams {
  core::DvsPolicyConfig dvs{};
  core::FetchGatingConfig fetch_gating{};
  core::ClockGatingConfig clock_gating{};
  core::HybridConfig hybrid{};
  core::ProactiveConfig proactive{};
  core::LocalToggleConfig local_toggle{};
  core::FallbackConfig fallback{};
  /// When set, make_policy wraps the built policy in a GuardedPolicy
  /// (fail-safe sensor-fault supervision); kNone then yields a pure
  /// supervisor instead of nullptr.
  bool guarded = false;
  core::GuardedPolicyConfig guard{};
};

template <util::FieldsOf<PolicyParams> Self, class F>
void visit_fields(Self& p, F&& f) {
  f("dvs", p.dvs);
  f("fetch_gating", p.fetch_gating);
  f("clock_gating", p.clock_gating);
  f("hybrid", p.hybrid);
  f("proactive", p.proactive);
  f("local_toggle", p.local_toggle);
  f("fallback", p.fallback);
  f("guarded", p.guarded);
  f("guard", p.guard);
}

/// Per-sensor neighbour lists derived from the modelled floorplan's
/// shared-edge adjacency (sensor i sits on block i).
std::vector<std::vector<std::size_t>> sensor_adjacency();

/// Sensor (= block) display names in index order, for parsing fault
/// campaigns by block name.
std::vector<std::string_view> sensor_names();

/// Instantiate a policy (nullptr for kNone).
std::unique_ptr<core::DtmPolicy> make_policy(PolicyKind kind,
                                             const PolicyParams& params,
                                             const SimConfig& cfg);

/// Default simulation configuration for experiments. Honours the
/// HYDRA_RUN_INSTRUCTIONS / HYDRA_WARMUP_INSTRUCTIONS environment
/// variables so CI can run abbreviated sweeps.
SimConfig default_sim_config();

/// Content hash of every field of a SimConfig (including the core,
/// sensor, package and fault-campaign sub-configs).
std::uint64_t config_hash(const SimConfig& cfg);

/// The config a no-DTM baseline effectively runs under: `cfg` with the
/// DTM-only knobs (DVS ladder shape, switch behaviour, clock-gating
/// quantum) reset to defaults, since without a policy they cannot
/// influence the run. Baselines are cached under the hash of this
/// normalised config, so DTM-side sweeps share one baseline per profile
/// while thermal/core/sensor changes get their own.
SimConfig baseline_config(const SimConfig& cfg);

/// Cache key of one run: content hash of (profile, kind, params, cfg).
std::uint64_t run_point_key(const workload::WorkloadProfile& profile,
                            PolicyKind kind, const PolicyParams& params,
                            const SimConfig& cfg);

/// One DTM run paired with its baseline.
struct ExperimentResult {
  RunResult dtm;
  RunResult baseline;
  /// Execution-time ratio dtm/baseline (>= 1 when DTM slows the run).
  double slowdown = 1.0;
};

/// Mean over the nine-benchmark suite.
struct SuiteResult {
  std::vector<ExperimentResult> per_benchmark;
  double mean_slowdown = 1.0;
  /// Half-width of the 99 % confidence interval on the mean slowdown.
  double ci99_half_width = 0.0;

  std::vector<double> slowdowns() const;
};

/// One sweep point for run_points().
struct PointSpec {
  workload::WorkloadProfile profile;
  PolicyKind kind = PolicyKind::kNone;
  PolicyParams params{};
  SimConfig cfg{};
};

/// One full nine-benchmark suite for run_suites().
struct SuiteSpec {
  PolicyKind kind = PolicyKind::kNone;
  PolicyParams params{};
  SimConfig cfg{};
};

/// Runs experiments on a thread pool, memoizing every point (and the
/// per-benchmark baselines) in a RunCache. All entry points are safe to
/// call from one thread while workers execute runs; results and their
/// ordering are independent of the pool width.
class ExperimentRunner {
 public:
  /// `pool` defaults to the process-wide HYDRA_THREADS-sized pool; tests
  /// inject fixed-width pools to compare widths in one process. The pool
  /// must outlive the runner.
  explicit ExperimentRunner(SimConfig base_cfg,
                            util::ThreadPool* pool = nullptr);

  const SimConfig& base_config() const { return base_cfg_; }
  std::size_t threads() const { return pool_->size(); }

  /// Baseline (no-DTM) run for a benchmark under the runner's base
  /// config (or `cfg`), cached by the hash of baseline_config(cfg). The
  /// returned reference stays valid for the runner's lifetime.
  const RunResult& baseline(const workload::WorkloadProfile& profile);
  const RunResult& baseline(const workload::WorkloadProfile& profile,
                            const SimConfig& cfg);

  /// Run `kind` under `cfg` and pair it with the cached baseline.
  ExperimentResult run(const workload::WorkloadProfile& profile,
                       PolicyKind kind, const PolicyParams& params,
                       const SimConfig& cfg);
  /// Same with the runner's base config.
  ExperimentResult run(const workload::WorkloadProfile& profile,
                       PolicyKind kind, const PolicyParams& params = {});

  /// Run a batch of points concurrently. Results are returned in input
  /// order regardless of completion order; duplicate points (and shared
  /// baselines) are computed once.
  std::vector<ExperimentResult> run_points(
      const std::vector<PointSpec>& points);

  /// Run the whole nine-benchmark suite.
  SuiteResult run_suite(PolicyKind kind, const PolicyParams& params,
                        const SimConfig& cfg);
  SuiteResult run_suite(PolicyKind kind, const PolicyParams& params = {});

  /// Run many suites with all points in flight at once — the entry
  /// point the sweep benches use.
  std::vector<SuiteResult> run_suites(const std::vector<SuiteSpec>& specs);

  /// Memoization counters (for tests/diagnostics).
  RunCache::Stats cache_stats() const { return cache_.stats(); }

  /// Always 0: run_points does not batch. benchmark/driver.cc still
  /// reads it for its batch.* rows, and the two go together.
  std::size_t last_batched_groups() const { return 0; }

  /// Supervision applied to every subsequently submitted run: per-job
  /// deadline (cooperative, polled by System::run) and transient-retry
  /// budget. Defaults are "no supervision", which keeps the engine's
  /// default behaviour — and its exact memoization shape — unchanged.
  void set_job_options(const RunCache::JobOptions& opts) {
    job_opts_ = opts;
  }
  const RunCache::JobOptions& job_options() const { return job_opts_; }

  /// Attach a crash-safe disk tier (see PersistentRunCache). Off by
  /// default — persistence is opt-in per tool so benches and tests stay
  /// deterministic under arbitrary HYDRA_CACHE_DIR environments.
  void set_store(std::shared_ptr<PersistentRunCache> store) {
    cache_.set_store(std::move(store));
  }
  std::shared_ptr<PersistentRunCache> store() const {
    return cache_.store();
  }

 private:
  RunCache::Future submit_run(const workload::WorkloadProfile& profile,
                              PolicyKind kind, const PolicyParams& params,
                              const SimConfig& cfg);
  RunCache::Future submit_baseline(const workload::WorkloadProfile& profile,
                                   const SimConfig& cfg);

  SimConfig base_cfg_;
  util::ThreadPool* pool_;
  RunCache cache_;
  RunCache::JobOptions job_opts_{};
};

}  // namespace hydra::sim
