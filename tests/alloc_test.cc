// Heap-allocation contracts. A global operator-new counter (the only one
// in tests/) proves the hot paths reuse their storage once warm: the
// observability record calls, the thermal step on each solver path, and
// a repeated System::run(), and the cache-key hash. It also sums the
// bytes requested, which bounds what building a system costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/multicore.h"
#include "sim/system.h"
#include "thermal/solver.h"
#include "workload/spec_profiles.h"

// Global allocation counter so the hot-path tests can assert record
// calls never allocate (the layer's core contract), and a byte total
// for the footprint tests.
static std::atomic<std::uint64_t> g_heap_allocs{0};
static std::atomic<std::uint64_t> g_heap_bytes{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's scratch buffer (a FaultCampaign sorts its events)
// comes from the nothrow form. Without these, a sanitizer's own nothrow
// new would pair with the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

std::uint64_t allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

/// Bytes requested from operator new so far (frees are not netted out).
std::uint64_t allocated_bytes() {
  return g_heap_bytes.load(std::memory_order_relaxed);
}

}  // namespace

namespace hydra::obs {
namespace {

// The reason the layer can be compiled into every hot loop: with the
// registry/tracer disabled, record calls are a relaxed load + branch and
// must never allocate.
TEST(Metrics, DisabledRecordPathIsAllocationFree) {
  Registry reg;
  const Counter c = reg.counter("off.counter");
  const Histogram h = reg.histogram("off.hist", {1.0, 10.0});
  const Gauge g = reg.gauge("off.gauge");
  ASSERT_FALSE(reg.enabled());

  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
    g.set(static_cast<double>(i));
  }
  EXPECT_EQ(allocs() - before, 0u);
}

// Enabled counters stay allocation-free too once the calling thread has
// recorded once (first record registers the thread's shard).
TEST(Metrics, EnabledWarmedRecordPathIsAllocationFree) {
  Registry reg;
  reg.set_enabled(true);
  const Counter c = reg.counter("on.counter");
  const Histogram h = reg.histogram("on.hist", {1.0, 10.0});
  c.add();          // warm: registers this thread's shard
  h.record(1.0);

  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    c.add();
    h.record(static_cast<double>(i));
  }
  EXPECT_EQ(allocs() - before, 0u);

  const MetricsSnapshot snap = reg.scrape();
  EXPECT_EQ(snap.counters[0].second, 100'001u);
}

TEST(Trace, DisabledRecordPathIsAllocationFree) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  const std::uint64_t before = allocs();
  for (int i = 0; i < 100'000; ++i) {
    tracer.instant(0, TimeDomain::kSim, "cat", "ev", 1.0);
    tracer.counter(0, TimeDomain::kSim, "track", 1.0, 2.0);
    const ScopedSpan span(tracer, "cat", "span");
  }
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

}  // namespace
}  // namespace hydra::obs

namespace hydra {
namespace {

// Heap allocations over 2000 steps of `scheme` on the shared model the
// simulator steps for `cfg`. The first step builds the operator for the
// step's dt (LU factorisation, fused matrices or sparse factor); every
// later step must reuse the solver's member storage.
std::uint64_t warmed_step_allocs(const sim::SimConfig& cfg,
                                 thermal::Scheme scheme,
                                 std::size_t expect_nodes,
                                 bool expect_sparse) {
  const auto shared = sim::ModelCache::global().get(cfg);
  EXPECT_EQ(shared->model.network.size(), expect_nodes);
  thermal::TransientSolver solver(shared->model.network,
                                  cfg.package.ambient, scheme,
                                  shared->lu_cache);
  EXPECT_EQ(solver.sparse_path(), expect_sparse);
  const thermal::Vector watts(
      shared->model.num_blocks,
      2.0 / static_cast<double>(cfg.multicore.cores));
  const thermal::Vector power = shared->model.expand_power(watts);
  solver.initialize_steady_state(power);
  const util::Seconds dt(1e-4);
  solver.step(power, dt);  // warm: build the operator for this dt

  const std::uint64_t before = allocs();
  for (int i = 0; i < 2000; ++i) solver.step(power, dt);
  const std::uint64_t after = allocs();
  EXPECT_EQ(solver.fused_guard_trips(), 0u);
  return after - before;
}

TEST(AllocationFree, WarmedBackwardEulerStep) {
  EXPECT_EQ(warmed_step_allocs(sim::default_sim_config(),
                               thermal::Scheme::kBackwardEuler, 28, false),
            0u);
}

TEST(AllocationFree, WarmedFusedStep) {
  EXPECT_EQ(warmed_step_allocs(sim::default_sim_config(),
                               thermal::Scheme::kFusedBE, 28, false),
            0u);
}

// The 16-core die is past the dense/sparse crossover, so the fused
// scheme routes through the sparse LDL^T substitution.
TEST(AllocationFree, WarmedSparseStepOnSixteenCoreDie) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.multicore.cores = 16;
  EXPECT_EQ(warmed_step_allocs(cfg, thermal::Scheme::kFusedBE, 298, true),
            0u);
}

// After one warm run, run() again must reuse every scratch buffer,
// accumulator and the thermal fixed point: no DTM policy, observability
// off, at the run lengths the environment asks for up to 120k/40k.
TEST(AllocationFree, SecondSystemRun) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.run_instructions =
      std::min<std::uint64_t>(cfg.run_instructions, 120'000);
  cfg.warmup_instructions =
      std::min<std::uint64_t>(cfg.warmup_instructions, 40'000);
  sim::System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  (void)system.run();  // warm: one-time allocations

  const std::uint64_t before = allocs();
  const sim::RunResult second = system.run();
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(second.instructions, cfg.run_instructions);
}

// Every submitted run hashes its whole point (profile, params, config
// with a fault campaign) through the visitors; the walk must not
// allocate.
TEST(AllocationFree, RunPointKey) {
  const workload::WorkloadProfile profile = workload::spec2000_profile("gzip");
  sim::SimConfig cfg;
  cfg.fault_campaign = fault::FaultCampaign(
      {fault::FaultEvent{3, fault::FaultKind::kDrift, 0.0, 1.0, 2.0, 1.0}});
  sim::PolicyParams params;
  params.guarded = true;

  const std::uint64_t before = allocs();
  const std::uint64_t key =
      sim::run_point_key(profile, sim::PolicyKind::kHybrid, params, cfg);
  const std::uint64_t after = allocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_NE(key, 0u);
}

// Footprints: a run holds only what it steps with. Each bound fails if
// cache ways grow past 4-byte tags (a 16-byte stamped way puts the L2
// alone at 512 KiB), a gshare core builds tournament tables, or a
// sparse-path model forms a dense G.

constexpr std::uint64_t kKiB = 1024;

// Per tile of a 64-core die whose model is already cached, 181 KiB: the
// tile's core (the 4 MiB L2's tag store, 132 KiB), sensors, trace and
// scratch, plus a 1/64 share of the solver. A dense 1162-node G
// (10.3 MiB) in the solver alone would add 165 KiB a tile.
TEST(Footprint, SixtyFourCoreDiePerTile) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.multicore.cores = 64;
  cfg.multicore.threads = 1;
  (void)sim::ModelCache::global().get(cfg);

  const std::uint64_t before = allocated_bytes();
  const sim::MulticoreSystem system(workload::spec2000_profile("crafty"),
                                    cfg, nullptr);
  const std::uint64_t per_tile = (allocated_bytes() - before) / 64;
  EXPECT_LT(per_tile, 256 * kKiB) << per_tile / kKiB << " KiB per tile";
}

// An unoccupied tile holds no pipeline: the same 64-core die with 48
// threads allocates at least 150 KiB a tile less than with 64. A core's
// pipeline is about 160 KiB, 132 KiB of it the L2 tag store; the 16
// fewer traces add a little to the gap.
TEST(Footprint, UnoccupiedTilesHoldNoPipeline) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.multicore.cores = 64;
  cfg.multicore.threads = 1;
  (void)sim::ModelCache::global().get(cfg);

  std::uint64_t bytes[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    cfg.multicore.workload_threads = k == 0 ? 64 : 48;
    const std::uint64_t before = allocated_bytes();
    const sim::MulticoreSystem system(workload::spec2000_profile("crafty"),
                                      cfg, nullptr);
    bytes[k] = allocated_bytes() - before;
  }
  ASSERT_GT(bytes[0], bytes[1]);
  EXPECT_GE(bytes[0] - bytes[1], 16 * 150 * kKiB)
      << (bytes[0] - bytes[1]) / 16 / kKiB << " KiB per unoccupied tile";
}

// Building the 64-core die's model afresh and taking one sparse
// step forms no dense n x n matrix: the whole cost is below half of one.
TEST(Footprint, SparseDieModelFormsNoDenseMatrix) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.multicore.cores = 64;
  sim::ModelCache models;

  const std::uint64_t before = allocated_bytes();
  const auto shared = models.get(cfg);
  const std::size_t n = shared->model.network.size();
  thermal::TransientSolver solver(shared->model.network, cfg.package.ambient,
                                  thermal::Scheme::kFusedBE,
                                  shared->lu_cache);
  const thermal::Vector power = shared->model.expand_power(
      thermal::Vector(shared->model.num_blocks, 2.0 / 64.0));
  solver.initialize_steady_state(power);
  solver.step(power, util::Seconds(1e-4));
  const std::uint64_t bytes = allocated_bytes() - before;

  EXPECT_EQ(n, 1162u);
  EXPECT_TRUE(solver.sparse_path());
  EXPECT_LT(bytes, n * n * sizeof(double) / 2) << bytes / kKiB << " KiB";
}

// The fused operator for one dt on the single-core model keeps only its
// packed M and N. Building it also assembles C/dt + G and factorises it
// (one n x n matrix each, freed after); a dense copy of M and N kept
// beside the packed pair would add two more.
TEST(Footprint, FusedOperatorKeepsOnlyPackedMatrices) {
  const sim::SimConfig cfg = sim::default_sim_config();
  sim::ModelCache models;
  const auto shared = models.get(cfg);
  const std::size_t n = shared->model.network.size();
  ASSERT_EQ(n, 28u);

  const std::uint64_t before = allocated_bytes();
  const thermal::FusedStepOperator& op = shared->lu_cache->fused(1e-4);
  const std::uint64_t bytes = allocated_bytes() - before;

  const std::uint64_t packed =
      2 * op.pm.rows() * op.pm.stride() * sizeof(double);
  const std::uint64_t dense = n * n * sizeof(double);
  EXPECT_LT(bytes, packed + 2 * dense + 2 * kKiB) << bytes << " bytes";
}

// A single-core System with its model cached, 183 KiB: the core (L2 tag
// store 132 KiB, L1s 4.5 KiB each, no tournament tables under gshare),
// trace, sensors, power model and the 28-node solver.
TEST(Footprint, SingleCoreSystem) {
  const sim::SimConfig cfg = sim::default_sim_config();
  (void)sim::ModelCache::global().get(cfg);

  const std::uint64_t before = allocated_bytes();
  const sim::System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  const std::uint64_t bytes = allocated_bytes() - before;
  EXPECT_LT(bytes, 256 * kKiB) << bytes / kKiB << " KiB";
}

}  // namespace
}  // namespace hydra
