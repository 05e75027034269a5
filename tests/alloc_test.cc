// Heap-allocation contracts. A global operator-new counter (the only one
// in tests/) proves the hot paths reuse their storage once warm: the
// observability record calls, the thermal step on each solver path, and
// a repeated System::run(), and the cache-key hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/model_cache.h"
#include "sim/system.h"
#include "thermal/solver.h"
#include "thermal/sparse.h"
#include "workload/spec_profiles.h"

// Global allocation counter so the hot-path tests can assert record
// calls never allocate (the layer's core contract).
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// std::stable_sort's scratch buffer (a FaultCampaign sorts its events)
// comes from the nothrow form. Without these, a sanitizer's own nothrow
// new would pair with the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
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

// The simulator's contracts hold on the production dispatch, so each
// case pins the node-count crossover whatever HYDRA_SPARSE says.
class AllocationFree : public ::testing::Test {
 protected:
  void SetUp() override {
    thermal::set_sparse_mode_for_test(thermal::SparseMode::kAuto);
  }
  void TearDown() override { thermal::set_sparse_mode_for_test(saved_); }

 private:
  thermal::SparseMode saved_ = thermal::sparse_mode();
};

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

TEST_F(AllocationFree, WarmedBackwardEulerStep) {
  EXPECT_EQ(warmed_step_allocs(sim::default_sim_config(),
                               thermal::Scheme::kBackwardEuler, 28, false),
            0u);
}

TEST_F(AllocationFree, WarmedFusedStep) {
  EXPECT_EQ(warmed_step_allocs(sim::default_sim_config(),
                               thermal::Scheme::kFusedBE, 28, false),
            0u);
}

// The 16-core die is past the dense/sparse crossover, so the fused
// scheme routes through the sparse LDL^T substitution.
TEST_F(AllocationFree, WarmedSparseStepOnSixteenCoreDie) {
  sim::SimConfig cfg = sim::default_sim_config();
  cfg.multicore.cores = 16;
  EXPECT_EQ(warmed_step_allocs(cfg, thermal::Scheme::kFusedBE, 298, true),
            0u);
}

// After one warm run, run() again must reuse every scratch buffer,
// accumulator and the thermal fixed point: no DTM policy, observability
// off, at the run lengths the environment asks for up to 120k/40k.
TEST_F(AllocationFree, SecondSystemRun) {
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
TEST_F(AllocationFree, RunPointKey) {
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

}  // namespace
}  // namespace hydra
