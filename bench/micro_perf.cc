// Infrastructure micro-benchmarks (google-benchmark): throughput of the
// building blocks — core cycles/s, thermal solver steps, steady-state
// solves, power evaluation, trace generation, sensor sampling — plus
// end-to-end System throughput and suite-level thread scaling. These
// bound how long the figure-reproduction sweeps take. A diagnostic with
// no thresholds: alloc_test holds the allocation contracts and
// benchmark/run.py the end-to-end timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/core.h"
#include "floorplan/ev7.h"
#include "floorplan/multicore.h"
#include "power/power_model.h"
#include "sensor/sensor.h"
#include "sim/experiment.h"
#include "thermal/model_builder.h"
#include "thermal/simd.h"
#include "thermal/sparse.h"
#include "util/units.h"
#include "thermal/solver.h"
#include "util/thread_pool.h"
#include "workload/spec_profiles.h"

namespace {

using namespace hydra;

void BM_TraceGeneration(benchmark::State& state) {
  workload::SyntheticTrace trace(workload::spec2000_profile("gzip"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void BM_CoreCycle(benchmark::State& state) {
  workload::SyntheticTrace trace(workload::spec2000_profile("gzip"));
  arch::CoreConfig cfg;
  arch::Core core(cfg, trace);
  for (int i = 0; i < 100'000; ++i) core.cycle();  // warm
  for (auto _ : state) {
    core.cycle();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ipc"] = core.stats().ipc();
}
BENCHMARK(BM_CoreCycle);

// Gated-fetch variant of BM_CoreCycle: exercises the duty-cycle
// accumulators and the issue-scan sleep/consumer-list machinery under a
// starved pipeline — the regime harsh DTM actuation puts the core in.
void BM_CoreCycleGated(benchmark::State& state) {
  workload::SyntheticTrace trace(workload::spec2000_profile("gzip"));
  arch::CoreConfig cfg;
  arch::Core core(cfg, trace);
  core.set_fetch_gate_fraction(0.7);
  for (int i = 0; i < 100'000; ++i) core.cycle();  // warm
  for (auto _ : state) {
    core.cycle();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ipc"] = core.stats().ipc();
}
BENCHMARK(BM_CoreCycleGated);

// The O(1) bulk idle advance vs the per-cycle loop it replaces. Bulk
// processes `span` idle cycles per iteration at constant cost; the loop
// variant pays per cycle. items/s is idle cycles retired per second.
void BM_CoreIdleBulk(benchmark::State& state) {
  workload::SyntheticTrace trace(workload::spec2000_profile("gzip"));
  arch::Core core(arch::CoreConfig{}, trace);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    core.idle_cycles(span, false);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_CoreIdleBulk)->ArgName("span")->Arg(64)->Arg(4096);

void BM_CoreIdleLoop(benchmark::State& state) {
  workload::SyntheticTrace trace(workload::spec2000_profile("gzip"));
  arch::Core core(arch::CoreConfig{}, trace);
  const auto span = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < span; ++i) core.idle_cycle(false);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(span));
}
BENCHMARK(BM_CoreIdleLoop)->ArgName("span")->Arg(64)->Arg(4096);

void BM_ThermalBackwardEulerStep(benchmark::State& state) {
  const auto fp = floorplan::ev7_floorplan();
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0));
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 1.5;
  solver.step(power, util::Seconds(3.3e-6));  // warm: factorise the LU for this dt
  for (auto _ : state) {
    solver.step(power, util::Seconds(3.3e-6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalBackwardEulerStep);

// Same step as above through the fused operator: per step two contiguous
// matvecs instead of an LU solve.
void BM_ThermalFusedStep(benchmark::State& state) {
  const auto fp = floorplan::ev7_floorplan();
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0),
                                  thermal::Scheme::kFusedBE);
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 1.5;
  solver.step(power, util::Seconds(3.3e-6));  // warm: build the operator
  for (auto _ : state) {
    solver.step(power, util::Seconds(3.3e-6));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThermalFusedStep);

// The fused step under an explicitly selected SIMD backend: arg 0 pins
// the scalar reference kernels, arg 1 the backend the dispatcher picked
// at startup (label shows which — on a machine without vector support
// both legs run scalar). The ratio of the two legs is the measured
// vectorisation speedup of the thermal hot loop.
void BM_ThermalFusedStepSimd(benchmark::State& state) {
  namespace simd = thermal::simd;
  const simd::Backend prev = simd::active_backend();
  const simd::Backend backend =
      state.range(0) == 0 ? simd::Backend::kScalar : prev;
  simd::set_backend_for_test(backend);
  const auto fp = floorplan::ev7_floorplan();
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0),
                                  thermal::Scheme::kFusedBE);
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 1.5;
  solver.step(power, util::Seconds(3.3e-6));  // warm: build the operator
  for (auto _ : state) {
    solver.step(power, util::Seconds(3.3e-6));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(simd::backend_name(backend));
  simd::set_backend_for_test(prev);
}
BENCHMARK(BM_ThermalFusedStepSimd)->ArgName("vector")->Arg(0)->Arg(1);

// Sparse LDL^T factorisation of the 16-core die step matrix (CSR
// assembly + minimum-degree ordering + numeric factor): the
// factorise-once cost the sparse path pays per distinct rounded dt,
// amortised over every step of every run sharing the LuCache entry.
void BM_SparseCholeskyFactor(benchmark::State& state) {
  const auto fp = floorplan::multicore_floorplan(16);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  const thermal::CsrMatrix g = model.network.conductance_csr();
  std::size_t nnz_l = 0;
  for (auto _ : state) {
    thermal::SparseCholesky chol(g);
    nnz_l = chol.factor_nnz();
    benchmark::DoNotOptimize(chol);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["nodes"] = static_cast<double>(g.rows);
  state.counters["nnz_g"] = static_cast<double>(g.nnz());
  state.counters["nnz_l"] = static_cast<double>(nnz_l);
}
BENCHMARK(BM_SparseCholeskyFactor)->Unit(benchmark::kMillisecond);

// One sparse backward-Euler step on the 16-core die (rhs build + LDL^T
// substitution through the gather-dot kernels). Compare against
// BM_DieStep/cores:16's dense leg for the crossover evidence.
void BM_SparseStep(benchmark::State& state) {
  const thermal::SparseMode prev = thermal::sparse_mode();
  thermal::set_sparse_mode_for_test(thermal::SparseMode::kOn);
  const auto fp = floorplan::multicore_floorplan(16);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0),
                                  thermal::Scheme::kFusedBE);
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 0.1;
  solver.step(power, util::Seconds(3.3e-6));  // warm: build the factor
  for (auto _ : state) {
    solver.step(power, util::Seconds(3.3e-6));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sparse_path"] = solver.sparse_path() ? 1.0 : 0.0;
  thermal::set_sparse_mode_for_test(prev);
}
BENCHMARK(BM_SparseStep);

// The die-level thermal step across die sizes, dense fused (vector 0)
// vs sparse (vector 1) — the measured dense/sparse crossover lives in
// the ratio of these legs: dense wins at the single-core size, sparse
// wins from 4 cores up and the gap widens superlinearly (the fused step
// is O(n^2), the substitution O(nnz(L)) ~ O(n)).
void BM_DieStep(benchmark::State& state) {
  const thermal::SparseMode prev = thermal::sparse_mode();
  thermal::set_sparse_mode_for_test(state.range(1) == 0
                                        ? thermal::SparseMode::kOff
                                        : thermal::SparseMode::kOn);
  const auto cores = static_cast<std::size_t>(state.range(0));
  const auto fp = floorplan::multicore_floorplan(cores);
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::TransientSolver solver(model.network, util::Celsius(45.0),
                                  thermal::Scheme::kFusedBE);
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 0.1;
  solver.step(power, util::Seconds(3.3e-6));  // warm: build the operator
  for (auto _ : state) {
    solver.step(power, util::Seconds(3.3e-6));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["nodes"] = static_cast<double>(model.network.size());
  state.SetLabel(solver.sparse_path() ? "sparse" : "dense");
  thermal::set_sparse_mode_for_test(prev);
}
BENCHMARK(BM_DieStep)
    ->ArgNames({"cores", "sparse"})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_SteadyStateSolve(benchmark::State& state) {
  const auto fp = floorplan::ev7_floorplan();
  const auto model = thermal::build_thermal_model(fp, thermal::Package{});
  thermal::Vector power(model.network.size(), 0.0);
  for (std::size_t i = 0; i < model.num_blocks; ++i) power[i] = 1.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        thermal::steady_state(model.network, power, util::Celsius(45.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateSolve);

void BM_PowerEvaluation(benchmark::State& state) {
  const auto fp = floorplan::ev7_floorplan();
  const power::PowerModel pm(fp, power::EnergyModel{});
  arch::ActivityFrame frame;
  frame.cycles = 10'000;
  frame.clocked_cycles = 10'000;
  for (std::size_t i = 0; i < floorplan::kNumBlocks; ++i) {
    frame.events[i] = 4'000.0;
  }
  const std::vector<double> temps(floorplan::kNumBlocks, 83.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.block_power(frame, util::Volts(1.3), util::Hertz(3.0e9), temps));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerEvaluation);

// Batch leakage evaluation — the per-block exp chain with the
// voltage-scale division and constants hoisted, as run once per thermal
// step on the power hot path.
void BM_LeakageBatch(benchmark::State& state) {
  const auto fp = floorplan::ev7_floorplan();
  const power::LeakageModel leak(fp);
  const std::vector<double> temps(floorplan::kNumBlocks, 83.0);
  std::vector<double> out(floorplan::kNumBlocks, 0.0);
  for (auto _ : state) {
    leak.power_into(temps, util::Volts(1.3), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(floorplan::kNumBlocks));
}
BENCHMARK(BM_LeakageBatch);

void BM_SensorSample(benchmark::State& state) {
  sensor::SensorBank bank(floorplan::kNumBlocks, sensor::SensorConfig{});
  const std::vector<double> truth(floorplan::kNumBlocks, 83.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.sample(truth));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorSample);

/// Short simulation config for the end-to-end benchmarks below.
sim::SimConfig short_sim_config() {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.run_instructions = std::min<std::uint64_t>(cfg.run_instructions,
                                                 120'000);
  cfg.warmup_instructions =
      std::min<std::uint64_t>(cfg.warmup_instructions, 40'000);
  return cfg;
}

// End-to-end System throughput: one short no-DTM run per iteration,
// reported as committed instructions/second. The System is constructed
// once and re-run, so every timed run() is warm and allocation-free
// (alloc_test's AllocationFree.SecondSystemRun asserts that).
void BM_SystemRunShort(benchmark::State& state) {
  const sim::SimConfig cfg = short_sim_config();
  const workload::WorkloadProfile profile =
      workload::spec2000_profile("gzip");
  sim::System system(profile, cfg, nullptr);
  benchmark::DoNotOptimize(system.run());  // warm: one-time allocations
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.run_instructions));
}
BENCHMARK(BM_SystemRunShort)->Unit(benchmark::kMillisecond);

// Suite-level thread scaling: a full hybrid suite through the engine on
// a fixed-width pool. A fresh runner per iteration keeps memoization
// from short-circuiting repeats; the argument is the pool width.
void BM_SuiteParallel(benchmark::State& state) {
  const sim::SimConfig cfg = short_sim_config();
  const auto width = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::ThreadPool pool(width);
    sim::ExperimentRunner runner(cfg, &pool);
    benchmark::DoNotOptimize(
        runner.run_suite(sim::PolicyKind::kHybrid, {}, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_SuiteParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
