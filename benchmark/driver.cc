// hydra_benchmark: runs one benchmark workload per process.
//
//   hydra_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--trace-out PREFIX]
//
// Workloads (benchmark/README.md says why each was chosen):
//   sweep_cold  Fig.-4a-style sweep of two profiles at default run lengths:
//               fresh runner and empty disk tier per rep
//   sweep_warm  the nine-profile sweep's 45 keys, at shortened run lengths,
//               served from a filled disk tier
//   solo_long   one long System::run of crafty under Hyb, on this thread
//   die64       a fresh 64-core MulticoreSystem per rep
//
// Every input is generated from --seed. Reps repeat until --seconds of
// measured time have passed; set-up is repeated kSetupRepeats times,
// spread between the reps of an untraced run. The
// driver prints one JSON document of raw samples on stdout (progress
// goes to stderr); benchmark/run.py turns it into the reported metrics.
//
// --trace 1 turns observability on. The per-layer numbers then come from
// the program's own spans and counters, the driver's spans around each
// call into the simulator, and isolated per-call costs measured on the
// workload's own profile and thermal model. Half of the measured time
// runs untraced so the tracing overhead is measured in the same process.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/core.h"
#include "floorplan/ev7.h"
#include "obs/obs.h"
#include "power/power_model.h"
#include "sensor/sensor.h"
#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/multicore.h"
#include "sim/persistent_cache.h"
#include "sim/system.h"
#include "thermal/simd.h"
#include "thermal/solver.h"
#include "thermal/sparse.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload/spec_profiles.h"
#include "workload/synthetic_trace.h"

using namespace hydra;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRepeats = 41;
constexpr std::size_t kMinReps = 3;

// Run lengths. The cold sweep and the solo run keep the simulator's
// default warm-up and auto-sized activity probe, so each run has the
// probe : warm-up : measured mix a user's run has; the cold sweep fits
// the time cap by sweeping fewer profiles, not by shortening runs.
const char* const kColdSweepProfiles[] = {"mesa", "bzip2"};
constexpr std::uint64_t kSoloRun = 20'000'000;
constexpr double kSoloTimeScale = 150.0;
// The warm sweep serves all nine profiles' 45 keys. Its fixture is filled
// once per process; entry size does not depend on run length, so the
// fixture runs are short.
constexpr std::uint64_t kWarmRun = 40'000;
constexpr std::uint64_t kWarmWarmup = 20'000;
constexpr std::uint64_t kWarmProbe = 20'000;
// At default lengths a 64-core die spends 92% of a rep in the probe and
// measures about 60k instructions per tile (8 thermal steps, 2 DVS
// transitions), too few for DTM, migration or the arbiter to do much. The
// die therefore runs a shorter probe and longer warm-up and measured
// windows than the defaults.
constexpr std::size_t kDieCores = 64;
constexpr std::size_t kDieBusy = 48;
constexpr std::uint64_t kDieRun = 9'600'000;  // die totals, all tiles
constexpr std::uint64_t kDieWarmup = 2'400'000;
constexpr std::uint64_t kDieProbe = 400'000;  // per busy tile
constexpr double kDieBudgetWatts = 19.0;  // below the die's ~21 W draw

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Tracer-clock microseconds, so driver spans and in-program spans share
/// one time base (the tracer's clock runs whether or not it records).
double now_us() { return obs::tracer().now_us(); }

/// The CPUs this process may run on; empty if they cannot be read.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

std::size_t host_cpus() {
  const std::size_t n = allowed_cpus().size();
  return n > 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this process image. ru_maxrss would carry over
/// the peak of the (larger) parent that exec'd the driver.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t fold_seed(std::uint64_t base, std::uint64_t seed) {
  std::uint64_t z = base + seed * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Driver spans: one per call into the simulator, kept in memory and
// mirrored into the obs tracer so the exported trace shows them.

struct DriverSpan {
  std::string name;
  int parent = -1;
  double start_us = 0.0;
  double dur_us = 0.0;
};

bool g_record_spans = false;  ///< traced runs only
std::vector<DriverSpan> g_spans;
std::vector<int> g_open;

class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (!g_record_spans) return;
    index_ = static_cast<int>(g_spans.size());
    g_spans.push_back(
        {name, g_open.empty() ? -1 : g_open.back(), now_us(), 0.0});
    g_open.push_back(index_);
  }
  ~Span() {
    if (index_ < 0) return;
    DriverSpan& s = g_spans[static_cast<std::size_t>(index_)];
    s.dur_us = now_us() - s.start_us;
    g_open.pop_back();
    obs::tracer().complete("bench", name_, {}, s.start_us, s.dur_us);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int index_ = -1;
};

/// obs counter values by name.
using Counts = std::map<std::string, std::uint64_t>;

Counts counters() {
  Counts out;
  for (const auto& [name, value] : obs::metrics().scrape().counters) {
    out[name] = value;
  }
  return out;
}

Counts counter_delta(const Counts& before, const Counts& after) {
  Counts out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness: digest and invariants.

/// FNV-1a over every field of every result, in order. The disk tier's
/// serialisation covers every field with doubles as exact bits, and its
/// format is versioned when fields are added.
std::string digest_hex(const std::vector<sim::RunResult>& results) {
  util::HashSink h;
  for (const sim::RunResult& r : results) h.str(sim::serialize_run_result(r));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

/// Empty when `r` satisfies the physical and accounting invariants.
std::string invariant_violation(const sim::RunResult& r,
                                std::uint64_t requested, int width) {
  const double values[] = {r.wall_seconds,           r.ipc,
                           r.max_true_celsius,       r.violation_fraction,
                           r.above_trigger_fraction, r.mean_gate_fraction,
                           r.mean_issue_gate_fraction, r.dvs_low_fraction,
                           r.clock_gated_fraction,   r.mean_power_watts,
                           r.hottest_mean_celsius,   r.idle_skip_fraction,
                           r.failsafe_fraction,      r.fault_window_fraction,
                           r.fault_violation_fraction,
                           r.core_temp_spread_celsius,
                           r.budget_throttled_fraction};
  for (double v : values) {
    if (!std::isfinite(v)) return "non-finite field";
  }
  const double fractions[] = {r.violation_fraction,
                              r.above_trigger_fraction,
                              r.mean_gate_fraction,
                              r.mean_issue_gate_fraction,
                              r.dvs_low_fraction,
                              r.clock_gated_fraction,
                              r.idle_skip_fraction,
                              r.failsafe_fraction,
                              r.fault_window_fraction,
                              r.fault_violation_fraction,
                              r.budget_throttled_fraction};
  // Numerators and the wall time are summed in different orders (per
  // thermal interval vs per chunk), so a fraction that is 1 in exact
  // arithmetic can read 1 + a few ulps.
  constexpr double kRoundOff = 1e-12;
  for (double v : fractions) {
    if (v < 0.0 || v > 1.0 + kRoundOff) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "fraction %.17g outside [0,1]", v);
      return buf;
    }
  }
  if (r.instructions < requested) return "fewer instructions than requested";
  if (!(r.ipc > 0.0) || r.ipc > static_cast<double>(width)) {
    return "IPC outside (0, width]";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Forwarding policy decorator: times every update() in situ. Results are
// bit-identical to the undecorated policy (it only forwards).

class TimedPolicy final : public core::DtmPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<core::DtmPolicy> inner)
      : inner_(std::move(inner)) {}

  core::DtmCommand update(const core::ThermalSample& sample) override {
    const auto t0 = Clock::now();
    const core::DtmCommand cmd = inner_->update(sample);
    seconds_ += secs(t0, Clock::now());
    ++updates_;
    return cmd;
  }
  std::string_view name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

  double seconds() const { return seconds_; }
  std::uint64_t updates() const { return updates_; }

 private:
  std::unique_ptr<core::DtmPolicy> inner_;
  double seconds_ = 0.0;
  std::uint64_t updates_ = 0;
};

struct PolicyTally {
  double seconds = 0.0;
  std::uint64_t updates = 0;
  void add(const TimedPolicy& p) {
    seconds += p.seconds();
    updates += p.updates();
  }
};

// ---------------------------------------------------------------------------
// Workloads.

/// One measured rep: what the simulator returned plus what the driver
/// observed around it.
struct Rep {
  double start_us = 0.0;
  double end_us = 0.0;
  double wall_s = 0.0;
  double run_points_start_us = -1.0;  ///< sweeps: submission instant
  /// Submission order. Checked and then dropped for all but the first
  /// rep, so memory does not grow with the rep count.
  std::vector<sim::RunResult> results;
  /// Distinct simulated runs (a shared baseline counts once); the sweep
  /// results repeat each baseline once per policy. Dropped like results.
  std::vector<sim::RunResult> distinct;
  // Totals over `distinct`, kept after the vectors are dropped.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t guard_trips = 0;
  std::uint64_t dvs_transitions = 0;
  std::size_t points = 0;
  Counts counts;        ///< obs counter deltas (traced reps)
  std::string problem;  ///< workload-specific check that failed, if any
  sim::RunCache::Stats cache{};
  sim::PersistentRunCache::Stats disk{};
  std::uint64_t disk_bytes = 0;
  double disk_open_s = 0.0;
  std::size_t batch_groups = 0;
  PolicyTally policy{};
};

/// What the end-to-end metrics need of one rep.
struct Sample {
  double wall_s = 0.0;
  std::uint64_t instructions = 0;
  std::size_t points = 0;
  bool traced = false;
};

/// Checks every rep as it completes: invariants per distinct run, one
/// digest shared by every rep, and the workload's own check. Each failed
/// run or check counts once.
class Checker {
 public:
  Checker(std::uint64_t requested, int ipc_width)
      : requested_(requested), ipc_width_(ipc_width) {}

  /// Fill the rep's totals and check it; the result vectors are dropped
  /// unless `keep`.
  void check(Rep& r, bool keep) {
    const std::string digest = digest_hex(r.results);
    if (digest_.empty()) digest_ = digest;
    if (digest != digest_) fail("digest differs between reps");
    for (const sim::RunResult& x : r.distinct) {
      ++attempted_;
      r.instructions += x.instructions;
      r.cycles += x.cycles;
      r.guard_trips += x.solver_guard_trips;
      r.dvs_transitions += x.dvs_transitions;
      const std::string why = invariant_violation(x, requested_, ipc_width_);
      if (!why.empty()) fail(x.benchmark + "/" + x.policy + ": " + why);
    }
    r.points = r.distinct.size();
    if (!r.problem.empty()) fail(r.problem);
    if (!keep) {  // release the storage, not just the elements
      std::vector<sim::RunResult>().swap(r.results);
      std::vector<sim::RunResult>().swap(r.distinct);
    }
  }

  void fail(std::string why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(std::move(why));
  }

  const std::string& digest() const { return digest_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t requested_;
  int ipc_width_;
  std::string digest_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;  ///< the first few, for the report
};

sim::SimConfig seeded_config(std::uint64_t seed) {
  sim::SimConfig cfg;  // defaults; no environment overrides
  cfg.sensor.seed = fold_seed(cfg.sensor.seed, seed);
  return cfg;
}

workload::WorkloadProfile seeded_profile(workload::WorkloadProfile p,
                                         std::uint64_t seed) {
  p.seed = fold_seed(p.seed, seed);
  return p;
}

/// Build the shared model for `cfg` in `models` and factorise every
/// operator a run over it needs at a steady DVS level, so reps time
/// steady-state work and set-up carries the one-off costs.
void build_model(sim::ModelCache& models, const sim::SimConfig& cfg) {
  Span span("model_cache_get");
  const std::shared_ptr<const sim::SharedModel> shared = models.get(cfg);
  const thermal::LuCache& lu = *shared->lu_cache;
  const bool sparse = thermal::use_sparse_step(shared->model.network.size());
  const auto factorize = [&](double dt) {
    const double r = thermal::round_step_dt(dt);
    if (sparse) {
      lu.sparse(r);
    } else {
      lu.fused(r);
    }
  };
  const double cycles = static_cast<double>(cfg.thermal_interval_cycles);
  if (cfg.multicore.cores > 1) {
    if (sparse) {
      lu.steady_sparse();
    } else {
      lu.steady();
    }
    factorize(cycles / cfg.f_nominal.value());
  } else {
    lu.steady();
    const power::DvsLadder ladder = sim::make_ladder(cfg);
    for (std::size_t l = 0; l < ladder.size(); ++l) {
      factorize(cycles / ladder.point(l).frequency.value());
    }
  }
}

class Workload {
 public:
  Workload(std::size_t width, std::filesystem::path work)
      : width_(width), work_(std::move(work)) {}
  virtual ~Workload() = default;

  /// Untimed fixture preparation, once per process.
  virtual void prepare() {}
  /// One timed set-up: everything a user pays before the first run.
  /// `models` is a fresh ModelCache, so every model is really built.
  virtual void setup(sim::ModelCache& models) = 0;
  /// Untimed: the state reps run against (the process-wide ModelCache
  /// the simulator uses, the engine pool). Set-up measured the same work.
  virtual void prime() { build_model(sim::ModelCache::global(), config()); }
  /// One measured rep. `time_policy` wraps policies the driver builds
  /// itself in TimedPolicy (traced runs only).
  virtual Rep rep(bool time_policy) = 0;

  /// Config of the runs whose invariants are checked.
  virtual const sim::SimConfig& config() const = 0;
  /// Profiles the isolated layer costs are measured on.
  virtual std::vector<workload::WorkloadProfile> probe_profiles() const = 0;
  /// Digest every rep must reproduce, when one is fixed in-process.
  virtual std::string expected_digest() const { return {}; }
  /// Extra traced-run work: policy costs for sweeps, the width-1 rep for
  /// the die.
  virtual void traced_extras(std::map<std::string, double>&, Checker&) {}
  /// The rep the ledger is computed on, when not the first traced rep.
  virtual const Rep* ledger_rep() const { return nullptr; }

  std::size_t width() const { return width_; }

 protected:
  std::size_t width_;
  std::filesystem::path work_;
};

/// The sweep's profiles: the named ones, or all nine when `names` is
/// empty.
std::vector<workload::WorkloadProfile> sweep_profiles(
    const std::vector<std::string>& names, std::uint64_t seed) {
  std::vector<workload::WorkloadProfile> out;
  for (const workload::WorkloadProfile& p : workload::spec2000_hot_profiles()) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), p.name) != names.end()) {
      out.push_back(seeded_profile(p, seed));
    }
  }
  return out;
}

/// The DTM points, 4 policies x the profiles; each profile adds one
/// shared baseline run.
std::vector<sim::PointSpec> sweep_points(
    const sim::SimConfig& cfg,
    const std::vector<workload::WorkloadProfile>& profiles) {
  const sim::PolicyKind kinds[] = {
      sim::PolicyKind::kFetchGating, sim::PolicyKind::kDvs,
      sim::PolicyKind::kHybrid, sim::PolicyKind::kClockGating};
  std::vector<sim::PointSpec> points;
  for (sim::PolicyKind kind : kinds) {
    for (const workload::WorkloadProfile& p : profiles) {
      points.push_back({p, kind, {}, cfg});
    }
  }
  return points;
}

void collect_sweep(const std::vector<sim::ExperimentResult>& rs, Rep& rep) {
  std::set<std::string> baselines;
  for (const sim::ExperimentResult& r : rs) {
    rep.results.push_back(r.dtm);
    rep.results.push_back(r.baseline);
    rep.distinct.push_back(r.dtm);
    if (baselines.insert(r.baseline.benchmark).second) {
      rep.distinct.push_back(r.baseline);
    }
  }
}

class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, std::size_t width,
                std::filesystem::path work, bool warm)
      : Workload(width, std::move(work)), warm_(warm) {
    cfg_ = seeded_config(seed);
    std::vector<std::string> names;
    if (warm) {
      cfg_.run_instructions = kWarmRun;
      cfg_.warmup_instructions = kWarmWarmup;
      cfg_.activity_probe_instructions = kWarmProbe;
    } else {
      names.assign(std::begin(kColdSweepProfiles),
                   std::end(kColdSweepProfiles));
    }
    profiles_ = sweep_profiles(names, seed);
    points_ = sweep_points(cfg_, profiles_);
  }

  void prepare() override {
    if (!warm_) return;
    // Fill the disk tier once; every rep then serves these keys.
    std::filesystem::remove_all(fixture_dir());
    util::ThreadPool pool(width_);
    sim::ExperimentRunner runner(cfg_, &pool);
    runner.set_store(std::make_shared<sim::PersistentRunCache>(
        sim::PersistentRunCache::Options{fixture_dir().string()}));
    Rep fixture;
    collect_sweep(runner.run_points(points_), fixture);
    fixture_digest_ = digest_hex(fixture.results);
  }

  void setup(sim::ModelCache& models) override {
    {
      Span span("pool_create");
      const util::ThreadPool pool(width_);
    }
    build_model(models, cfg_);
    const std::filesystem::path dir =
        warm_ ? fixture_dir() : work_ / "setup-store";
    if (!warm_) std::filesystem::remove_all(dir);
    {
      Span span("disk_open");
      const sim::PersistentRunCache store({dir.string()});
    }
    if (!warm_) std::filesystem::remove_all(dir);
  }

  void prime() override {
    Workload::prime();
    pool_ = std::make_unique<util::ThreadPool>(width_);
  }

  Rep rep(bool) override {
    const std::filesystem::path dir = warm_ ? fixture_dir() : work_ / "cold";
    if (!warm_) std::filesystem::remove_all(dir);
    Rep rep;
    const auto t0 = Clock::now();
    rep.start_us = now_us();
    {
      Span span(warm_ ? "sweep_warm_rep" : "sweep_cold_rep");
      std::shared_ptr<sim::PersistentRunCache> store;
      {
        Span open("disk_open");
        const auto o0 = Clock::now();
        store = std::make_shared<sim::PersistentRunCache>(
            sim::PersistentRunCache::Options{dir.string()});
        rep.disk_open_s = secs(o0, Clock::now());
      }
      sim::ExperimentRunner runner(cfg_, pool_.get());
      runner.set_store(store);
      std::vector<sim::ExperimentResult> rs;
      {
        Span run("run_points");
        rep.run_points_start_us = now_us();
        rs = runner.run_points(points_);
      }
      rep.cache = runner.cache_stats();
      rep.batch_groups = runner.last_batched_groups();
      rep.disk = store->stats();
      rep.disk_bytes = store->total_bytes();
      collect_sweep(rs, rep);
    }
    if (warm_ && rep.cache.computes != 0) {
      rep.problem = "sweep_warm rep recomputed " +
                    std::to_string(rep.cache.computes) + " points";
    }
    rep.wall_s = secs(t0, Clock::now());
    rep.end_us = now_us();
    if (!warm_) std::filesystem::remove_all(dir);
    return rep;
  }

  const sim::SimConfig& config() const override { return cfg_; }
  std::vector<workload::WorkloadProfile> probe_profiles() const override {
    return profiles_;
  }
  std::string expected_digest() const override { return fixture_digest_; }

  /// The runner builds its own policies, so the sweep's policy cost is
  /// timed on one decorated System run per swept policy (first profile).
  void traced_extras(std::map<std::string, double>& m, Checker&) override {
    PolicyTally tally;
    for (std::size_t i = 0; i < points_.size(); i += profiles_.size()) {
      const sim::PointSpec& p = points_[i];
      auto timed = std::make_unique<TimedPolicy>(
          sim::make_policy(p.kind, p.params, p.cfg));
      TimedPolicy* view = timed.get();
      Span span("policy_probe_run");
      sim::System system(p.profile, p.cfg, std::move(timed));
      system.run();
      tally.add(*view);
    }
    m["policy.us_per_update"] =
        tally.updates == 0 ? 0.0
                           : 1e6 * tally.seconds /
                                 static_cast<double>(tally.updates);
  }

 private:
  std::filesystem::path fixture_dir() const { return work_ / "fixture"; }

  bool warm_;
  sim::SimConfig cfg_;
  std::vector<workload::WorkloadProfile> profiles_;
  std::vector<sim::PointSpec> points_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::string fixture_digest_;
};

class SoloWorkload : public Workload {
 public:
  SoloWorkload(std::uint64_t seed, std::size_t width,
               std::filesystem::path work)
      : Workload(width, std::move(work)) {
    cfg_ = seeded_config(seed);
    cfg_.time_scale = kSoloTimeScale;
    cfg_.run_instructions = kSoloRun;
    profile_ = seeded_profile(workload::spec2000_profile("crafty"), seed);
  }

  void setup(sim::ModelCache& models) override { build_model(models, cfg_); }

  Rep rep(bool time_policy) override {
    Rep rep;
    std::unique_ptr<core::DtmPolicy> policy =
        sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg_);
    TimedPolicy* timed = nullptr;
    if (time_policy) {
      auto wrapped = std::make_unique<TimedPolicy>(std::move(policy));
      timed = wrapped.get();
      policy = std::move(wrapped);
    }
    const auto t0 = Clock::now();
    rep.start_us = now_us();
    {
      Span span("solo_long_rep");
      sim::System system(profile_, cfg_, std::move(policy));
      {
        Span run("system_run");
        rep.results.push_back(system.run());
      }
      if (timed != nullptr) rep.policy.add(*timed);
    }
    rep.wall_s = secs(t0, Clock::now());
    rep.end_us = now_us();
    rep.distinct = rep.results;
    return rep;
  }

  const sim::SimConfig& config() const override { return cfg_; }
  std::vector<workload::WorkloadProfile> probe_profiles() const override {
    return {profile_};
  }

 private:
  sim::SimConfig cfg_;
  workload::WorkloadProfile profile_;
};

class DieWorkload : public Workload {
 public:
  DieWorkload(std::uint64_t seed, std::size_t width,
              std::filesystem::path work)
      : Workload(width, std::move(work)) {
    cfg_ = seeded_config(seed);
    cfg_.run_instructions = kDieRun;
    cfg_.warmup_instructions = kDieWarmup;
    cfg_.activity_probe_instructions = kDieProbe;
    cfg_.multicore.cores = kDieCores;
    cfg_.multicore.workload_threads = kDieBusy;
    cfg_.multicore.threads = width;
    cfg_.multicore.per_core_dvs = true;
    cfg_.multicore.migration = true;
    cfg_.multicore.arbiter.die_budget = util::Watts(kDieBudgetWatts);
    // Tiled dies run cooler than the single-core die at equal power
    // density: lowered thresholds make DTM engage.
    cfg_.thresholds.trigger = util::Celsius(70.0);
    cfg_.thresholds.emergency = util::Celsius(74.0);
    profile_ = seeded_profile(workload::spec2000_profile("crafty"), seed);
  }

  void setup(sim::ModelCache& models) override { build_model(models, cfg_); }

  Rep rep(bool time_policy) override { return run_die(cfg_, time_policy); }

  const sim::SimConfig& config() const override { return cfg_; }
  std::vector<workload::WorkloadProfile> probe_profiles() const override {
    return {profile_};
  }

  /// The tile-width-1 rep: the tile speed-up, the width-1 vs width-N
  /// digest check and (being serial) the ledger.
  void traced_extras(std::map<std::string, double>& m,
                     Checker& check) override {
    sim::SimConfig serial = cfg_;
    serial.multicore.threads = 1;
    serial_ = run_die(serial, true);
    m["multicore.width1_wall_s"] = serial_.wall_s;
    if (digest_hex(serial_.results) != check.digest()) {
      check.fail("die64: width-1 digest differs from width-" +
                 std::to_string(width_));
    }
  }
  const Rep* ledger_rep() const override { return &serial_; }

 private:
  Rep run_die(const sim::SimConfig& cfg, bool time_policy) {
    Rep rep;
    std::vector<TimedPolicy*> timed;
    sim::PolicyFactory factory = [&cfg, &timed, time_policy] {
      std::unique_ptr<core::DtmPolicy> p =
          sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg);
      if (!time_policy) return p;
      auto wrapped = std::make_unique<TimedPolicy>(std::move(p));
      timed.push_back(wrapped.get());
      return std::unique_ptr<core::DtmPolicy>(std::move(wrapped));
    };
    const auto t0 = Clock::now();
    rep.start_us = now_us();
    {
      Span span("die64_rep");
      sim::MulticoreSystem system(profile_, cfg, factory, "Hyb");
      {
        Span run("multicore_run");
        rep.results.push_back(system.run().aggregate);
      }
      for (const TimedPolicy* p : timed) rep.policy.add(*p);
    }
    rep.wall_s = secs(t0, Clock::now());
    rep.end_us = now_us();
    rep.distinct = rep.results;
    return rep;
  }

  sim::SimConfig cfg_;
  workload::WorkloadProfile profile_;
  Rep serial_;
};

// ---------------------------------------------------------------------------
// Isolated per-call layer costs, measured on the workload's own profile
// and thermal model with tracing off.

volatile std::uint64_t g_sink = 0;

struct Isolated {
  double trace_ns = 0.0;   ///< SyntheticTrace::next
  double cycle_ns = 0.0;   ///< Core::cycle minus its trace draws
  double power_us = 0.0;   ///< PowerModel::block_power_into
  double step_us = 0.0;    ///< TransientSolver::step
  double sensor_us = 0.0;  ///< SensorBank::sample_into
  double load_us = 0.0;    ///< PersistentRunCache::load
  double save_us = 0.0;    ///< PersistentRunCache::save
  std::size_t nodes = 0;
  bool sparse = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Isolated measure_isolated(const Workload& w,
                          const std::vector<sim::RunResult>& sample_results,
                          const std::filesystem::path& dir) {
  Span span("isolated_costs");
  Isolated out;
  const sim::SimConfig& cfg = w.config();
  const std::vector<workload::WorkloadProfile> profiles = w.probe_profiles();

  {
    Span s("probe_trace_next");
    constexpr std::uint64_t kDraws = 400'000;
    std::uint64_t sink = 0;
    double total = 0.0;
    for (const workload::WorkloadProfile& p : profiles) {
      workload::SyntheticTrace trace(p);
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kDraws; ++i) sink ^= trace.next().pc;
      total += secs(t0, Clock::now());
    }
    out.trace_ns =
        1e9 * total / static_cast<double>(kDraws * profiles.size());
    g_sink = sink;  // keeps the draws from being optimised away
  }

  arch::ActivityFrame frame;
  {
    Span s("probe_core_cycle");
    constexpr int kCycles = 300'000;
    double total = 0.0;
    std::uint64_t fetched = 0;
    for (const workload::WorkloadProfile& p : profiles) {
      workload::SyntheticTrace trace(p);
      arch::Core core(cfg.core, trace);
      for (int i = 0; i < 20'000; ++i) core.cycle();  // fill the pipeline
      core.take_interval_activity();
      const std::uint64_t f0 = core.stats().fetched;
      const auto t0 = Clock::now();
      for (int i = 0; i < kCycles; ++i) core.cycle();
      total += secs(t0, Clock::now());
      fetched += core.stats().fetched - f0;
      frame = core.take_interval_activity();
    }
    const double cycles = static_cast<double>(kCycles) *
                          static_cast<double>(profiles.size());
    out.cycle_ns = std::max(
        0.0, (1e9 * total - static_cast<double>(fetched) * out.trace_ns) /
                 cycles);
  }

  const std::shared_ptr<const sim::SharedModel> shared =
      sim::ModelCache::global().get(cfg);
  const thermal::ThermalModel& model = shared->model;
  out.nodes = model.network.size();
  out.sparse = thermal::use_sparse_step(out.nodes);
  const power::PowerModel power(floorplan::ev7_floorplan(),
                                power::EnergyModel());
  const power::DvsLadder ladder = sim::make_ladder(cfg);
  const std::vector<double> block_temps(floorplan::kNumBlocks, 80.0);
  std::vector<double> watts(floorplan::kNumBlocks);
  {
    Span s("probe_block_power");
    constexpr int kCalls = 50'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      power.block_power_into(frame, ladder.point(0).voltage,
                             ladder.point(0).frequency, block_temps, watts);
    }
    out.power_us = 1e6 * secs(t0, Clock::now()) / kCalls;
  }

  {
    Span s("probe_thermal_step");
    const std::size_t cores = std::max<std::size_t>(1, cfg.multicore.cores);
    std::vector<double> die_watts(cores * floorplan::kNumBlocks);
    for (std::size_t i = 0; i < die_watts.size(); ++i) {
      die_watts[i] = watts[i % floorplan::kNumBlocks] /
                     static_cast<double>(cores);
    }
    thermal::Vector expanded(model.network.size());
    model.expand_power_into(die_watts, expanded);
    thermal::TransientSolver solver(
        model.network, cfg.package.ambient,
        cfg.fused_thermal ? thermal::Scheme::kFusedBE
                          : thermal::Scheme::kBackwardEuler,
        shared->lu_cache);
    solver.initialize_steady_state(expanded);
    const util::Seconds dt(static_cast<double>(cfg.thermal_interval_cycles) /
                           cfg.f_nominal.value());
    solver.step(expanded, dt);  // factorise outside the timed loop
    const int steps = out.nodes > 200 ? 2'000 : 50'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < steps; ++i) solver.step(expanded, dt);
    out.step_us = 1e6 * secs(t0, Clock::now()) / steps;
  }

  {
    Span s("probe_sensor_sample");
    sensor::SensorBank bank(floorplan::kNumBlocks, cfg.sensor);
    std::vector<double> sensed;
    constexpr int kSamples = 100'000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSamples; ++i) bank.sample_into(block_temps, sensed);
    out.sensor_us = 1e6 * secs(t0, Clock::now()) / kSamples;
  }

  {
    // The disk tier's own save/load on this workload's results.
    Span s("probe_disk_io");
    std::filesystem::remove_all(dir);
    sim::PersistentRunCache store({dir.string()});
    std::vector<double> saves;
    std::vector<double> loads;
    std::uint64_t key = fold_seed(0x5eed, sample_results.size());
    for (int round = 0; round < 8; ++round) {
      for (const sim::RunResult& r : sample_results) {
        const auto t0 = Clock::now();
        store.save(++key, r);
        saves.push_back(1e6 * secs(t0, Clock::now()));
      }
    }
    for (std::uint64_t k = key - saves.size() + 1; k <= key; ++k) {
      const auto t0 = Clock::now();
      const auto loaded = store.load(k);
      loads.push_back(1e6 * secs(t0, Clock::now()));
      if (!loaded) throw std::runtime_error("disk probe: saved entry missing");
    }
    out.save_us = median(saves);
    out.load_us = median(loads);
  }
  std::filesystem::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Program spans, read back from the obs tracer's CSV export.

struct ProgramSpan {
  std::string lane;
  std::string category;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cell += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

std::vector<ProgramSpan> program_spans() {
  std::stringstream csv;
  obs::tracer().write_csv(csv);
  std::vector<ProgramSpan> out;
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    const std::vector<std::string> c = split_csv_line(line);
    // domain,lane,lane_name,phase,category,name,ts_us,dur_us,...
    if (c.size() < 8 || c[0] != "wall" || c[3] != "X" || c[4] == "bench") {
      continue;
    }
    out.push_back({c[2], c[4], c[5], std::stod(c[6]), std::stod(c[7])});
  }
  return out;
}

/// Per-lane system spans as (init_thermal, warmup, measure) triples. The
/// CSV export replaces a span's name with its label (the benchmark
/// name), so phases are identified by their fixed order on a lane.
struct PhaseTriple {
  double init_s = 0.0, warmup_s = 0.0, measure_s = 0.0, start_us = 0.0;
};

std::vector<PhaseTriple> phase_triples(const std::vector<ProgramSpan>& spans,
                                       Checker& check) {
  std::map<std::string, std::vector<const ProgramSpan*>> by_lane;
  for (const ProgramSpan& s : spans) {
    if (s.category == "system") by_lane[s.lane].push_back(&s);
  }
  std::vector<PhaseTriple> out;
  for (auto& [lane, list] : by_lane) {
    if (list.size() % 3 != 0) {
      check.fail("trace: lane " + lane + " has system spans not in triples");
      continue;
    }
    for (std::size_t i = 0; i < list.size(); i += 3) {
      const ProgramSpan& a = *list[i];
      const ProgramSpan& b = *list[i + 1];
      const ProgramSpan& c = *list[i + 2];
      if (!(a.ts_us <= b.ts_us && b.ts_us <= c.ts_us)) {
        check.fail("trace: system phases out of order on " + lane);
        continue;
      }
      out.push_back({a.dur_us * 1e-6, b.dur_us * 1e-6, c.dur_us * 1e-6,
                     a.ts_us});
    }
  }
  return out;
}

/// Samples the process's OS thread count while traced reps run.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] { loop(); }) {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  /// Peak thread count, not counting the sampler itself.
  std::size_t peak() const { return peak_.load() - 1; }

 private:
  void loop() {
    while (!stop_.load()) {
      std::size_t n = 0;
      std::error_code ec;
      for (auto it = std::filesystem::directory_iterator("/proc/self/task",
                                                         ec);
           !ec && it != std::filesystem::directory_iterator();
           it.increment(ec)) {
        ++n;
      }
      std::size_t prev = peak_.load();
      while (n > prev && !peak_.compare_exchange_weak(prev, n)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{1};
  std::thread thread_;
};

/// Measured-window call counts the ledger multiplies by isolated costs.
struct Calls {
  double trace = 0.0;      ///< SyntheticTrace::next (~ committed)
  double cycles = 0.0;     ///< executed Core::cycle calls
  double intervals = 0.0;  ///< thermal steps
  double power = 0.0;      ///< block_power_into (one per tile per step)
  double samples = 0.0;    ///< sensor-bank samples
  double policy_samples = 0.0;  ///< of which feed a policy
};

Calls measure_calls(const std::vector<sim::RunResult>& runs,
                    const sim::SimConfig& cfg) {
  Calls c;
  const double period =
      1.0 / (cfg.sensor.sample_rate.value() * cfg.time_scale);
  for (const sim::RunResult& r : runs) {
    const double cycles = static_cast<double>(r.cycles);
    c.trace += static_cast<double>(r.instructions);
    c.cycles += cycles * (1.0 - r.idle_skip_fraction);
    const double cores = static_cast<double>(r.cores);
    double intervals = 0.0;
    if (r.cores > 1) {
      const double dt = static_cast<double>(cfg.thermal_interval_cycles) /
                        cfg.f_nominal.value();
      intervals = std::round(r.wall_seconds / dt);
    } else {
      intervals = std::round(
          cycles / static_cast<double>(cfg.thermal_interval_cycles));
    }
    c.intervals += intervals;
    c.power += intervals * cores;
    const double samples = cores * r.wall_seconds / period;
    c.samples += samples;
    if (r.policy != "baseline") c.policy_samples += samples;
  }
  return c;
}

struct SetupWindow {
  double start_us = 0.0;
  double end_us = 0.0;
  Counts counts;  ///< counter deltas over the window
};

/// Index of the traced rep whose window holds `ts_us`, or -1. `reps` is
/// in time order.
int rep_at(const std::vector<Rep>& reps, double ts_us) {
  const auto it = std::upper_bound(
      reps.begin(), reps.end(), ts_us,
      [](double t, const Rep& r) { return t < r.start_us; });
  if (it == reps.begin()) return -1;
  const Rep& r = *std::prev(it);
  return ts_us <= r.end_us ? static_cast<int>(it - reps.begin()) - 1 : -1;
}

/// Per-layer metrics of a traced run. Counts and times are per rep
/// (median over the traced reps) unless named per call or per set-up.
std::map<std::string, double> layer_metrics(
    const Workload& w, const std::vector<Sample>& samples,
    const std::vector<Rep>& traced, const std::vector<SetupWindow>& setups,
    const Isolated& iso, std::size_t peak_threads,
    std::map<std::string, double> m, Checker& check) {
  const std::vector<ProgramSpan> spans = program_spans();
  const sim::SimConfig& cfg = w.config();
  const std::size_t n = traced.size();

  // Per-rep sums over the program's spans.
  struct RepSpans {
    double jobs = 0, busy = 0, longest = 0, lanes = 0, lane_busy = 0;
  };
  std::vector<RepSpans> per(n);
  std::vector<double> waits;
  for (const ProgramSpan& s : spans) {
    if (s.category != "engine" || s.name == "build_model") continue;
    const int i = rep_at(traced, s.ts_us);
    if (i < 0) continue;
    const Rep& r = traced[static_cast<std::size_t>(i)];
    RepSpans& p = per[static_cast<std::size_t>(i)];
    const double d = s.dur_us * 1e-6;
    p.jobs += 1;
    p.busy += d;
    p.longest = std::max(p.longest, d);
    // Pool workers run engine/run jobs; lockstep batch lanes run on
    // their own threads (the export shows labels, not span names).
    if (s.lane.rfind("pool-worker", 0) != 0) {
      p.lanes += 1;
      p.lane_busy += d;
    }
    if (r.run_points_start_us >= 0.0) {
      waits.push_back((s.ts_us - r.run_points_start_us) * 1e-6);
    }
  }
  const std::vector<PhaseTriple> triples = phase_triples(spans, check);
  std::vector<PhaseTriple> phases(n);
  std::size_t runs_seen = 0;
  for (const PhaseTriple& t : triples) {
    const int i = rep_at(traced, t.start_us);
    if (i < 0) continue;
    PhaseTriple& p = phases[static_cast<std::size_t>(i)];
    p.init_s += t.init_s;
    p.warmup_s += t.warmup_s;
    p.measure_s += t.measure_s;
    ++runs_seen;
  }
  std::size_t runs_expected = 0;
  for (const Rep& r : traced) {
    // Points served from disk run no System; computed ones run one each.
    runs_expected += r.points - static_cast<std::size_t>(r.cache.disk_hits);
  }
  if (runs_seen != runs_expected) {
    check.fail("trace: " + std::to_string(runs_seen) +
               " system span triples for " + std::to_string(runs_expected) +
               " runs");
  }

  const auto med = [&](auto&& fn) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<double>(fn(i)));
    }
    return median(v);
  };
  const auto counter = [&](std::size_t i, const char* name) {
    const auto it = traced[i].counts.find(name);
    return it == traced[i].counts.end() ? 0.0
                                        : static_cast<double>(it->second);
  };

  // --- engine and batch --------------------------------------------------
  m["engine.jobs"] = med([&](std::size_t i) { return per[i].jobs; });
  m["engine.busy_s"] = med([&](std::size_t i) { return per[i].busy; });
  m["engine.pool_utilization"] = med([&](std::size_t i) {
    return per[i].busy / (static_cast<double>(w.width()) * traced[i].wall_s);
  });
  m["engine.queue_wait_p50_s"] = quantile(waits, 0.5);
  m["engine.queue_wait_p90_s"] = quantile(waits, 0.9);
  m["engine.longest_job_s"] = med([&](std::size_t i) { return per[i].longest; });
  m["engine.peak_os_threads"] = static_cast<double>(peak_threads);
  m["batch.groups"] =
      med([&](std::size_t i) { return traced[i].batch_groups; });
  m["batch.lane_runs"] = med([&](std::size_t i) { return per[i].lanes; });
  m["batch.lane_busy_s"] =
      med([&](std::size_t i) { return per[i].lane_busy; });

  // --- run cache and disk tier -------------------------------------------
  m["run_cache.hits"] = med([&](std::size_t i) { return traced[i].cache.hits; });
  m["run_cache.misses"] =
      med([&](std::size_t i) { return traced[i].cache.misses; });
  m["disk.open_s"] = med([&](std::size_t i) { return traced[i].disk_open_s; });
  m["disk.hits"] = med([&](std::size_t i) { return traced[i].disk.hits; });
  m["disk.stores"] = med([&](std::size_t i) { return traced[i].disk.stores; });
  m["disk.bytes"] = med([&](std::size_t i) { return traced[i].disk_bytes; });
  m["disk.load_us"] = iso.load_us;
  m["disk.save_us"] = iso.save_us;

  // --- model cache and factorisation (per set-up) -------------------------
  std::vector<double> build_s, fact_s, fact_n, misses;
  for (const SetupWindow& win : setups) {
    double bs = 0, fs = 0, fn = 0;
    for (const ProgramSpan& s : spans) {
      if (s.ts_us < win.start_us || s.ts_us > win.end_us) continue;
      if (s.category == "engine" && s.name == "build_model") {
        bs += s.dur_us * 1e-6;
      }
      if (s.category == "thermal") {
        fs += s.dur_us * 1e-6;
        fn += 1;
      }
    }
    build_s.push_back(bs);
    fact_s.push_back(fs);
    fact_n.push_back(fn);
    const auto it = win.counts.find("model_cache.misses");
    misses.push_back(
        it == win.counts.end() ? 0.0 : static_cast<double>(it->second));
  }
  m["model_cache.build_s"] = median(build_s);
  m["model_cache.misses"] = median(misses);
  m["thermal.factorize_s"] = median(fact_s);
  m["thermal.factorizations"] = median(fact_n);

  // --- simulation phases --------------------------------------------------
  m["system.init_thermal_s"] =
      med([&](std::size_t i) { return phases[i].init_s; });
  m["system.warmup_s"] = med([&](std::size_t i) { return phases[i].warmup_s; });
  m["system.measure_s"] =
      med([&](std::size_t i) { return phases[i].measure_s; });
  const double traced_wall =
      med([&](std::size_t i) { return traced[i].wall_s; });
  const auto w1 = m.find("multicore.width1_wall_s");
  m["multicore.tile_speedup"] =
      w1 == m.end() ? 0.0 : w1->second / traced_wall;
  if (w1 != m.end()) m.erase(w1);

  // --- workload, arch, power, thermal, sensor, policy ----------------------
  // Ratios and measured-window call counts come from the first traced
  // rep; every rep computes the same runs (one digest). Results served
  // from the disk tier were not simulated, so they count for nothing.
  const auto simulated = [](const Rep& r) { return r.cache.disk_hits == 0; };
  static const std::vector<sim::RunResult> kNone;
  const std::vector<sim::RunResult>& runs =
      simulated(traced.front()) ? traced.front().distinct : kNone;
  double instr = 0, cyc = 0, idle = 0;
  for (const sim::RunResult& x : runs) {
    instr += static_cast<double>(x.instructions);
    cyc += static_cast<double>(x.cycles);
    idle += x.idle_skip_fraction * static_cast<double>(x.cycles);
  }
  const Calls calls = measure_calls(runs, cfg);
  m["workload.ns_per_instr"] = iso.trace_ns;
  m["arch.ns_per_cycle"] = iso.cycle_ns;
  m["arch.cycles"] = med([&](std::size_t i) {
    return simulated(traced[i]) ? traced[i].cycles : 0;
  });
  m["arch.ipc"] = cyc > 0 ? instr / cyc : 0.0;
  m["arch.idle_skip_fraction"] = cyc > 0 ? idle / cyc : 0.0;
  m["power.us_per_call"] = iso.power_us;
  m["power.calls"] = calls.power;
  m["thermal.us_per_step"] = iso.step_us;
  m["thermal.steps"] = calls.intervals;
  m["thermal.nodes"] = static_cast<double>(iso.nodes);
  m["thermal.sparse"] = iso.sparse ? 1.0 : 0.0;
  m["thermal.guard_trips"] = med([&](std::size_t i) {
    return simulated(traced[i]) ? traced[i].guard_trips : 0;
  });
  m["sensor.us_per_sample"] = iso.sensor_us;
  PolicyTally tally;
  for (const Rep& r : traced) {
    tally.seconds += r.policy.seconds;
    tally.updates += r.policy.updates;
  }
  if (tally.updates > 0) {
    m["policy.us_per_update"] =
        1e6 * tally.seconds / static_cast<double>(tally.updates);
  }
  m["policy.updates"] = calls.policy_samples;
  m["dtm.dvs_transitions"] = med([&](std::size_t i) {
    return simulated(traced[i]) ? traced[i].dvs_transitions : 0;
  });
  m["dtm.policy_engagements"] = med(
      [&](std::size_t i) { return counter(i, "dtm.policy_engagements"); });

  // --- ledger --------------------------------------------------------------
  // Layer seconds over the measured window, estimated as calls x isolated
  // per-call cost; what the estimates leave unexplained is the event
  // spine (event scheduling, accumulators and, in lockstep batches, the
  // rendezvous waits).
  const Rep* lrep = w.ledger_rep();
  const PhaseTriple* lphase = nullptr;
  PhaseTriple serial_phase;
  if (lrep == nullptr) {
    lrep = &traced.front();
    lphase = &phases.front();
  } else {
    for (const PhaseTriple& t : triples) {
      if (t.start_us >= lrep->start_us && t.start_us <= lrep->end_us) {
        serial_phase.measure_s += t.measure_s;
      }
    }
    lphase = &serial_phase;
  }
  const Calls lc =
      measure_calls(simulated(*lrep) ? lrep->distinct : kNone, cfg);
  const double policy_us =
      m.count("policy.us_per_update") != 0 ? m["policy.us_per_update"] : 0.0;
  const std::pair<const char*, double> parts[] = {
      {"ledger.workload_s", lc.trace * iso.trace_ns * 1e-9},
      {"ledger.arch_s", lc.cycles * iso.cycle_ns * 1e-9},
      {"ledger.power_s", lc.power * iso.power_us * 1e-6},
      {"ledger.thermal_s", lc.intervals * iso.step_us * 1e-6},
      {"ledger.sensor_s", lc.samples * iso.sensor_us * 1e-6},
      {"ledger.policy_s", lc.policy_samples * policy_us * 1e-6}};
  double attributed = 0.0;
  for (const auto& [name, seconds] : parts) {
    m[name] = seconds;
    attributed += seconds;
  }
  const double measure_s = lphase->measure_s;
  m["ledger.measure_s"] = measure_s;
  m["ledger.attributed_fraction"] =
      measure_s > 0.0 ? attributed / measure_s : 0.0;
  m["ledger.event_spine_s"] = measure_s - attributed;

  std::vector<double> untraced_wall;
  for (const Sample& r : samples) {
    if (!r.traced) untraced_wall.push_back(r.wall_s);
  }
  m["trace.overhead_frac"] = traced_wall / median(untraced_wall) - 1.0;
  return m;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::filesystem::path work_dir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.traced = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, std::size_t width) {
  if (a.workload == "sweep_cold" || a.workload == "sweep_warm") {
    return std::make_unique<SweepWorkload>(a.seed, width, a.work_dir,
                                           a.workload == "sweep_warm");
  }
  if (a.workload == "solo_long") {
    return std::make_unique<SoloWorkload>(a.seed, width, a.work_dir);
  }
  if (a.workload == "die64") {
    return std::make_unique<DieWorkload>(a.seed, width, a.work_dir);
  }
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}


/// Timed set-ups, each against a fresh ModelCache so every model is
/// really built.
class Setups {
 public:
  std::vector<double> seconds;
  std::vector<SetupWindow> windows;  ///< for the per-set-up layers

  /// One sample, with the calling thread pinned to the allowed CPUs in
  /// turn. A thread otherwise stays on one vCPU for the whole run, and
  /// the vCPUs of a shared host run at different speeds for seconds to
  /// minutes at a time, so its samples would measure that one vCPU. The
  /// sweeps' set-up pool inherits the pin; it is created and joined
  /// inside the sample.
  void run_one(Workload& w) {
    const CpuPin pin(cpus_.empty() ? -1
                                   : cpus_[seconds.size() % cpus_.size()]);
    sim::ModelCache models;
    const Counts before = counters();
    const double start_us = now_us();
    const auto t0 = Clock::now();
    {
      Span span("setup");
      w.setup(models);
    }
    seconds.push_back(secs(t0, Clock::now()));
    windows.push_back({start_us, now_us(), counter_delta(before, counters())});
  }

 private:
  /// Pins the calling thread to one CPU (none when `cpu` < 0) and
  /// restores its affinity on destruction. Best effort: a refused pin
  /// leaves the thread where it is.
  class CpuPin {
   public:
    explicit CpuPin(int cpu) {
      if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
        return;
      }
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~CpuPin() {
      if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
    }
    CpuPin(const CpuPin&) = delete;
    CpuPin& operator=(const CpuPin&) = delete;

   private:
    cpu_set_t saved_{};
    bool pinned_ = false;
  };

  std::vector<int> cpus_ = allowed_cpus();
};

/// Untraced reps keep only their Sample, so memory (and peak RSS) does
/// not grow with the rep count; traced reps keep their Rep for the
/// per-layer metrics.
struct Measured {
  std::vector<Sample> samples;
  std::vector<Rep> traced;
  std::size_t peak_threads = 0;
};

/// Reps until `seconds` of measured time, at least kMinReps of each
/// kind; the median absorbs the first rep's lazy process-level work. A
/// traced run alternates untraced and traced reps so drift hits both
/// alike. An untraced run spreads its kSetupRepeats set-ups evenly over
/// the measured time, so their median sees the same host as the reps.
Measured measure_reps(Workload& w, double seconds, bool traced,
                      Checker& check, Setups& setups) {
  obs::Observability& o = obs::Observability::instance();
  Measured m;
  // Reserved so growing the list never copies it (only touched pages
  // count towards peak RSS).
  m.samples.reserve(1 << 17);
  std::unique_ptr<ThreadSampler> sampler;
  if (traced) sampler = std::make_unique<ThreadSampler>();
  double measured = 0.0;
  std::size_t untraced = 0;
  while (measured < seconds || untraced < kMinReps ||
         (traced && m.traced.size() < kMinReps)) {
    if (!traced) {
      const double due = std::max(
          1.0, std::ceil(static_cast<double>(kSetupRepeats) *
                         std::min(1.0, measured / seconds)));
      while (static_cast<double>(setups.seconds.size()) < due) {
        setups.run_one(w);
      }
    }
    const bool this_traced = traced && m.traced.size() < untraced;
    Rep r;
    if (this_traced) {
      o.enable_all();
      const Counts before = counters();
      r = w.rep(true);
      r.counts = counter_delta(before, counters());
      o.disable_all();
    } else {
      r = w.rep(false);
      ++untraced;
    }
    check.check(r, this_traced && m.traced.empty());
    measured += r.wall_s;
    m.samples.push_back({r.wall_s, r.instructions, r.points, this_traced});
    if (this_traced) m.traced.push_back(std::move(r));
  }
  while (setups.seconds.size() < kSetupRepeats) setups.run_one(w);
  if (sampler) m.peak_threads = sampler->peak();
  return m;
}

void write_trace_files(const std::string& prefix) {
  std::ofstream trace(prefix + ".trace.json");
  obs::tracer().write_chrome_json(trace);
  std::ofstream metrics(prefix + ".metrics.csv");
  obs::metrics().write_csv(metrics);
  std::ofstream spans(prefix + ".spans.csv");
  spans << "id,parent,name,start_us,dur_us\n";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const DriverSpan& s = g_spans[i];
    spans << i << ',' << s.parent << ',' << s.name << ',' << s.start_us << ','
          << s.dur_us << '\n';
  }
  if (!trace || !metrics || !spans) {
    throw std::runtime_error("cannot write trace output " + prefix);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    // Pool workers name their trace lanes only if obs exists before the
    // first pool is created.
    obs::Observability& observability = obs::Observability::instance();
    const std::size_t width = std::min<std::size_t>(4, host_cpus());
    std::filesystem::create_directories(args.work_dir);
    std::unique_ptr<Workload> w = make_workload(args, width);
    Checker check(w->config().run_instructions, w->config().core.commit_width);
    std::fprintf(stderr, "hydra_benchmark: %s seed=%llu width=%zu%s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), width,
                 args.traced ? " traced" : "");
    w->prepare();

    // A traced run takes its set-ups up front with obs on, for the
    // per-set-up layers (their pools would also count towards the reps'
    // peak thread count).
    g_record_spans = args.traced;
    Setups setups;
    if (args.traced) {
      observability.enable_all();
      while (setups.seconds.size() < kSetupRepeats) setups.run_one(*w);
      observability.disable_all();
    }
    w->prime();

    Measured reps = measure_reps(*w, args.seconds, args.traced, check, setups);
    if (!w->expected_digest().empty() &&
        w->expected_digest() != check.digest()) {
      check.fail("sweep_warm results differ from the fixture that filled "
                 "its disk tier");
    }

    std::map<std::string, double> layers;
    if (args.traced) {
      observability.enable_all();
      w->traced_extras(layers, check);
      observability.disable_all();
      const Isolated iso = measure_isolated(
          *w, reps.traced.front().distinct, args.work_dir / "disk-probe");
      layers = layer_metrics(*w, reps.samples, reps.traced, setups.windows, iso,
                             reps.peak_threads, std::move(layers), check);
      if (!args.trace_out.empty()) write_trace_files(args.trace_out);
    }

    const std::size_t nodes =
        sim::ModelCache::global().get(w->config())->model.network.size();
    util::JsonWriter out(std::cout);
    out.begin_object();
    out.key("workload").value(args.workload);
    out.key("seed").value(static_cast<unsigned long long>(args.seed));
    out.key("traced").value(args.traced);
    out.key("fingerprint").begin_object();
    out.key("nproc").value(host_cpus());
    out.key("pool_width").value(width);
    out.key("simd").value(
        thermal::simd::backend_name(thermal::simd::active_backend()));
    out.key("sparse_path").value(thermal::use_sparse_step(nodes));
    out.key("compiler").value(HYDRA_BENCH_COMPILER);
    out.end_object();
    out.key("setup_s").begin_array();
    for (double s : setups.seconds) out.value(s);
    out.end_array();
    out.key("reps").begin_array();
    for (const Sample& r : reps.samples) {
      out.begin_object();
      out.key("wall_s").value(r.wall_s);
      out.key("instructions")
          .value(static_cast<unsigned long long>(r.instructions));
      out.key("points").value(r.points);
      out.key("traced").value(r.traced);
      out.end_object();
    }
    out.end_array();
    out.key("peak_rss_mb").value(peak_rss_mb());
    out.key("attempted").value(check.attempted());
    out.key("failed").value(check.failed());
    out.key("failures").begin_array();
    for (const std::string& f : check.failures()) out.value(f);
    out.end_array();
    out.key("digest").value(check.digest());
    out.key("layers").begin_object();
    for (const auto& [k, v] : layers) out.key(k).value(v);
    out.end_object();
    out.end_object();
    std::cout << '\n';
    std::filesystem::remove_all(args.work_dir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hydra_benchmark: %s\n", e.what());
    return 1;
  }
}
