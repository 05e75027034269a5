// hydra_bench — parallel-engine benchmark driver.
//
// Measures the two performance properties the experiment engine is built
// around and emits them as JSON (default: BENCH_engine.json):
//
//   * thermal solver throughput — backward-Euler steps/second on the
//     EV7-like network, the per-step hot path every simulation spends
//     most of its time in (allocation-free, cached LU);
//   * suite scaling — wall time of a nine-benchmark hybrid-DTM suite on
//     a 1-thread pool vs an N-thread pool, and the resulting speedup.
//     Both runs produce bit-identical results; only wall time differs.
//
// It also asserts the engine's allocation contracts by counting heap
// allocations through a global operator-new override: the warmed
// per-step solver path and a repeated System::run() must both be
// allocation-free (solver_allocs_per_step / system_allocs_per_run in the
// JSON, gated at exactly zero by scripts/bench_gate.py).
//
// Usage:
//   hydra_bench [out=BENCH_engine.json] [threads=N] [solver_steps=K]
//               [run_instructions=I] [warmup_instructions=W]
//
// `threads` defaults to the HYDRA_THREADS width (hardware concurrency).
// The suite runs are shortened by default so the tool doubles as a CI
// smoke benchmark; pass larger run_instructions for real measurements.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/multicore.h"
#include "sim/system.h"
#include "thermal/simd.h"
#include "thermal/solver.h"
#include "thermal/sparse.h"
#include "util/units.h"
#include "util/config.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload/spec_profiles.h"

// Global allocation counter backing the allocation-contract measurements.
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace hydra;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SolverBench {
  double steps_per_second = 0.0;
  std::uint64_t allocs = 0;  ///< during the measured loop (contract: 0)
};

/// Backward-Euler steps/second on the shared thermal model, plus heap
/// allocations over the measured loop (the warmed path must make none).
SolverBench solver_throughput(const sim::SimConfig& cfg, long long steps,
                              thermal::Scheme scheme) {
  const auto shared = sim::ModelCache::global().get(cfg);
  thermal::TransientSolver solver(shared->model.network,
                                  cfg.package.ambient, scheme,
                                  shared->lu_cache);
  std::vector<double> watts(floorplan::kNumBlocks, 2.0);
  const thermal::Vector power = shared->model.expand_power(watts);
  solver.initialize_steady_state(power);
  const util::Seconds dt(1e-4);
  // Warm the dt memo (first step factorises the LU for this dt).
  solver.step(power, dt);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (long long i = 0; i < steps; ++i) solver.step(power, dt);
  const double elapsed = seconds_since(start);
  SolverBench result;
  result.steps_per_second =
      elapsed > 0.0 ? static_cast<double>(steps) / elapsed : 0.0;
  result.allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                  allocs_before;
  return result;
}

/// Heap allocations of a repeated System::run() after one warm run. The
/// engine's contract is zero: scratch buffers, accumulators and the
/// thermal fixed-point all reuse member storage.
std::uint64_t system_allocs_per_run(sim::SimConfig cfg) {
  cfg.run_instructions =
      std::min<std::uint64_t>(cfg.run_instructions, 120'000);
  cfg.warmup_instructions =
      std::min<std::uint64_t>(cfg.warmup_instructions, 40'000);
  sim::System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  system.run();  // warm: one-time allocations
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  system.run();
  return g_heap_allocs.load(std::memory_order_relaxed) - before;
}

struct MulticoreBench {
  double core_steps_per_second = 0.0;
  std::size_t nodes = 0;     ///< die RC node count (drives sparse dispatch)
  bool sparse_path = false;  ///< thermal steps route through sparse LDL^T
};

/// Many-core die throughput: one 16-core MulticoreSystem run with the
/// full DTM family active (per-core DVS + thread migration + budget
/// arbiter), reported as aggregate core-cycles stepped per wall-second.
/// 16 cores puts the 298-node die past the dense/sparse crossover, so
/// this number exercises the sparse substitution path end to end (the
/// warm run also caches the activity probe — the measured run is the
/// steady-state interval loop, which is what regressions would hit).
/// A 1-thread tile pool keeps the number host-size independent — the
/// same convention as the 1-thread suite pass; bench_gate.py floors it
/// against the baseline to catch regressions in the tiled interval loop.
MulticoreBench multicore_core_steps_per_second(sim::SimConfig cfg) {
  cfg.multicore.cores = 16;
  cfg.multicore.threads = 1;
  cfg.multicore.workload_threads = 12;
  cfg.multicore.migration = true;
  cfg.multicore.arbiter.die_budget = util::Watts(80.0);
  sim::MulticoreSystem system(
      workload::spec2000_profile("crafty"), cfg,
      [cfg] { return sim::make_policy(sim::PolicyKind::kHybrid, {}, cfg); },
      "hyb");
  system.run();  // warm: model build, factorisations, probe frames
  const auto start = std::chrono::steady_clock::now();
  const sim::MulticoreResult result = system.run();
  const double elapsed = seconds_since(start);
  MulticoreBench bench;
  bench.core_steps_per_second =
      elapsed > 0.0 ? static_cast<double>(result.aggregate.cycles) / elapsed
                    : 0.0;
  bench.nodes = sim::ModelCache::global().get(cfg)->model.network.size();
  bench.sparse_path = thermal::use_sparse_step(bench.nodes);
  return bench;
}

struct SuiteBench {
  double wall_seconds = 0.0;
  sim::RunCache::Stats cache;
  sim::SuiteResult results;
};

/// Wall time of a hybrid-DTM suite on a pool of the given width. A fresh
/// runner (fresh caches) per call keeps the comparison fair.
SuiteBench suite_wall_seconds(const sim::SimConfig& cfg, std::size_t width) {
  util::ThreadPool pool(width);
  sim::ExperimentRunner runner(cfg, &pool);
  const auto start = std::chrono::steady_clock::now();
  sim::SuiteResult suite = runner.run_suite(sim::PolicyKind::kHybrid, {}, cfg);
  const double elapsed = seconds_since(start);
  if (suite.per_benchmark.empty()) {
    throw std::runtime_error("suite produced no results");
  }
  return {elapsed, runner.cache_stats(), std::move(suite)};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config args = util::Config::from_args(
        std::vector<std::string>(argv + 1, argv + argc));
    args.reject_unknown({"out", "threads", "solver_steps",
                         "run_instructions", "warmup_instructions"});
    const std::string out_path = args.get_string("out", "BENCH_engine.json");
    const std::size_t threads = static_cast<std::size_t>(args.get_int(
        "threads",
        static_cast<long long>(util::ThreadPool::configured_width())));
    const long long solver_steps = args.get_int("solver_steps", 20000);

    sim::SimConfig cfg = sim::default_sim_config();
    // Short suite by default: this is a smoke/scaling benchmark, not a
    // paper reproduction. HYDRA_RUN_INSTRUCTIONS and the explicit keys
    // below both override.
    cfg.run_instructions = static_cast<std::uint64_t>(args.get_int(
        "run_instructions",
        static_cast<long long>(
            std::min<std::uint64_t>(cfg.run_instructions, 400'000))));
    cfg.warmup_instructions = static_cast<std::uint64_t>(args.get_int(
        "warmup_instructions",
        static_cast<long long>(
            std::min<std::uint64_t>(cfg.warmup_instructions, 100'000))));

    std::printf("hydra_bench: solver throughput (%lld steps)...\n",
                solver_steps);
    const SolverBench solver = solver_throughput(
        cfg, solver_steps, thermal::Scheme::kBackwardEuler);
    std::printf("  %.0f backward-Euler steps/sec, %llu allocs\n",
                solver.steps_per_second,
                static_cast<unsigned long long>(solver.allocs));
    const SolverBench fused = solver_throughput(
        cfg, solver_steps, thermal::Scheme::kFusedBE);
    std::printf("  %.0f fused-BE steps/sec, %llu allocs (%s backend)\n",
                fused.steps_per_second,
                static_cast<unsigned long long>(fused.allocs),
                thermal::simd::backend_name(
                    thermal::simd::active_backend()));

    std::printf("hydra_bench: 16-core die throughput...\n");
    const MulticoreBench multicore = multicore_core_steps_per_second(cfg);
    std::printf("  %.0f core-steps/sec (16 tiles, serial, %s path)\n",
                multicore.core_steps_per_second,
                multicore.sparse_path ? "sparse" : "dense");

    std::printf("hydra_bench: repeated System::run() allocations...\n");
    const std::uint64_t system_allocs = system_allocs_per_run(cfg);
    std::printf("  %llu allocs\n",
                static_cast<unsigned long long>(system_allocs));

    std::printf("hydra_bench: suite wall time, 1 thread...\n");
    const SuiteBench suite_1 = suite_wall_seconds(cfg, 1);
    const double wall_1 = suite_1.wall_seconds;
    std::printf("  %.3f s\n", wall_1);

    SuiteBench suite_n = suite_1;
    if (threads > 1) {
      std::printf("hydra_bench: suite wall time, %zu threads...\n", threads);
      suite_n = suite_wall_seconds(cfg, threads);
      std::printf("  %.3f s\n", suite_n.wall_seconds);
    }
    const double wall_n = suite_n.wall_seconds;
    const double speedup = wall_n > 0.0 ? wall_1 / wall_n : 1.0;
    std::printf("  speedup at %zu threads: %.2fx\n", threads, speedup);

    // Suite throughput (measured instructions per wall-second) and the
    // mean idle-skip fraction, both taken from the 1-thread pass so the
    // numbers are comparable across hosts regardless of pool width.
    std::uint64_t suite_instructions = 0;
    double idle_skip_sum = 0.0;
    std::size_t idle_skip_runs = 0;
    for (const sim::ExperimentResult& r : suite_1.results.per_benchmark) {
      suite_instructions += r.dtm.instructions + r.baseline.instructions;
      idle_skip_sum += r.dtm.idle_skip_fraction;
      idle_skip_sum += r.baseline.idle_skip_fraction;
      idle_skip_runs += 2;
    }
    const double suite_instr_per_second =
        wall_1 > 0.0 ? static_cast<double>(suite_instructions) / wall_1 : 0.0;
    const double idle_skip_fraction =
        idle_skip_runs > 0
            ? idle_skip_sum / static_cast<double>(idle_skip_runs)
            : 0.0;
    std::printf("  suite throughput: %.0f instr/s, idle-skip %.3f\n",
                suite_instr_per_second, idle_skip_fraction);

    std::ofstream out(out_path);
    if (!out) {
      throw std::runtime_error("cannot open '" + out_path + "' for write");
    }
    util::JsonWriter w(out);
    w.begin_object();
    w.key("solver_steps_per_second").value(solver.steps_per_second);
    w.key("solver_fused_steps_per_second").value(fused.steps_per_second);
    w.key("multicore_core_steps_per_second")
        .value(multicore.core_steps_per_second);
    w.key("multicore_nodes")
        .value(static_cast<unsigned long long>(multicore.nodes));
    w.key("sparse_path").value(multicore.sparse_path);
    w.key("sparse_crossover_nodes")
        .value(static_cast<unsigned long long>(
            thermal::kSparseCrossoverNodes));
    w.key("solver_steps_measured").value(solver_steps);
    w.key("solver_allocs_per_step")
        .value(static_cast<double>(solver.allocs) /
               static_cast<double>(std::max<long long>(solver_steps, 1)));
    w.key("solver_fused_allocs_per_step")
        .value(static_cast<double>(fused.allocs) /
               static_cast<double>(std::max<long long>(solver_steps, 1)));
    w.key("system_allocs_per_run").value(system_allocs);
    w.key("suite_cache_hits").value(suite_n.cache.hits);
    w.key("suite_cache_misses").value(suite_n.cache.misses);
    w.key("suite_policy").value("hyb");
    w.key("suite_run_instructions")
        .value(static_cast<unsigned long long>(cfg.run_instructions));
    w.key("suite_wall_seconds_1_thread").value(wall_1);
    w.key("suite_wall_seconds_n_threads").value(wall_n);
    w.key("suite_instr_per_second").value(suite_instr_per_second);
    w.key("idle_skip_fraction").value(idle_skip_fraction);
    w.key("fused_be").value(cfg.fused_thermal);
    w.key("bulk_idle_skip").value(cfg.bulk_idle_skip);
    w.key("simd_backend")
        .value(thermal::simd::backend_name(thermal::simd::active_backend()));
    w.key("threads").value(threads);
    w.key("hardware_concurrency")
        .value(static_cast<unsigned long long>(
            std::thread::hardware_concurrency()));
    w.key("speedup").value(speedup);
    w.end_object();
    out << '\n';
    std::printf("hydra_bench: wrote %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hydra_bench: " << e.what() << '\n';
    return 1;
  }
}
