// Fault-tolerant engine + crash-safe persistent cache: job supervision
// (containment, typed failures, deadline, retry), the fused-BE numerical
// guard, and chaos recovery of the on-disk store (corruption quarantine,
// warm restart, bit-identical reproduction).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.h"
#include "sim/experiment.h"
#include "sim/persistent_cache.h"
#include "sim/run_cache.h"
#include "sim/system.h"
#include "util/cancel.h"
#include "util/config.h"
#include "util/fields.h"
#include "util/thread_pool.h"

namespace hydra::sim {
namespace {

namespace fs = std::filesystem;

SimConfig short_config() {
  SimConfig cfg = default_sim_config();
  cfg.run_instructions = 60'000;
  cfg.warmup_instructions = 20'000;
  return cfg;
}

/// This process's directory under the gtest temp root, removed at exit.
/// One per process: ctest runs each test on its own and recovery_suite
/// runs them all again, at the same time.
const fs::path& process_dir() {
  struct Dir {
    fs::path path = fs::path(::testing::TempDir()) /
                    ("hydra-recovery-" + std::to_string(::getpid()));
    Dir() = default;
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// Fresh per-test directory in this process's directory.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = process_dir() / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

RunResult tiny_result(const std::string& tag) {
  RunResult r;
  r.benchmark = tag;
  r.policy = "test";
  r.wall_seconds = 0.125;
  r.instructions = 1000;
  r.ipc = 2.5;
  return r;
}

// ---------------------------------------------------------------------------
// Job supervision.

// Regression for the latent future-poisoning bug: a throwing job used to
// leave its broken future cached forever, so every later submission of
// the same key rethrew without ever recomputing.
TEST(JobSupervision, ThrowingJobFailsFastAndResubmitRecomputes) {
  util::ThreadPool pool(2);
  RunCache cache;
  auto failed = cache.submit(42, pool, []() -> RunResult {
    throw std::runtime_error("injected job failure");
  });
  EXPECT_THROW(failed.get(), std::runtime_error);

  // The key must not be poisoned: resubmission recomputes and succeeds.
  auto ok = cache.submit(
      42, pool, []() -> RunResult { return tiny_result("recomputed"); });
  EXPECT_EQ(ok.get()->benchmark, "recomputed");

  const RunCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.failures, 1u);
}

TEST(JobSupervision, ThrowingJobDoesNotBlockSiblings) {
  util::ThreadPool pool(2);
  RunCache cache;
  std::vector<RunCache::Future> futures;
  for (std::uint64_t key = 0; key < 8; ++key) {
    futures.push_back(cache.submit(key, pool, [key]() -> RunResult {
      if (key == 3) throw std::runtime_error("one bad job");
      return tiny_result("job-" + std::to_string(key));
    }));
  }
  for (std::uint64_t key = 0; key < 8; ++key) {
    if (key == 3) {
      EXPECT_THROW(futures[key].get(), std::runtime_error);
    } else {
      EXPECT_EQ(futures[key].get()->benchmark,
                "job-" + std::to_string(key));
    }
  }
  // Workers must all still be alive after the contained unwind.
  auto after = cache.submit(
      99, pool, []() -> RunResult { return tiny_result("after"); });
  EXPECT_EQ(after.get()->benchmark, "after");
}

TEST(JobSupervision, DeadlineExpiryIsATypedTimeout) {
  util::ThreadPool pool(1);
  RunCache cache;
  RunCache::JobOptions opts;
  opts.timeout = util::Seconds(0.02);
  auto future = cache.submit(
      7, pool,
      [](const util::CancelToken& token) -> RunResult {
        for (;;) {
          token.throw_if_stopped("spin-forever");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      opts);
  EXPECT_THROW(future.get(), util::TimeoutError);
  const RunCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.failures, 1u);
}

TEST(JobSupervision, TransientFailuresRetryThenSucceed) {
  util::ThreadPool pool(1);
  RunCache cache;
  RunCache::JobOptions opts;
  opts.max_attempts = 3;
  opts.backoff = util::Seconds(0.001);
  auto attempts = std::make_shared<std::atomic<int>>(0);
  auto future = cache.submit(
      11, pool,
      [attempts](const util::CancelToken&) -> RunResult {
        if (attempts->fetch_add(1) < 2) {
          throw util::TransientError("flaky dependency");
        }
        return tiny_result("third-time-lucky");
      },
      opts);
  EXPECT_EQ(future.get()->benchmark, "third-time-lucky");
  EXPECT_EQ(attempts->load(), 3);
  const RunCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.computes, 3u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(JobSupervision, TransientFailureExhaustsAttemptBudget) {
  util::ThreadPool pool(1);
  RunCache cache;
  RunCache::JobOptions opts;
  opts.max_attempts = 2;
  opts.backoff = util::Seconds(0.001);
  auto future = cache.submit(
      12, pool,
      [](const util::CancelToken&) -> RunResult {
        throw util::TransientError("always flaky");
      },
      opts);
  EXPECT_THROW(future.get(), util::TransientError);
  const RunCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failures, 1u);
}

// The retry sleep runs on a pool worker, so the backoff cap must bind
// the caller-supplied initial value too, not just the doublings.
TEST(JobSupervision, InitialBackoffIsClampedToTheCap) {
  util::ThreadPool pool(1);
  RunCache cache;
  RunCache::JobOptions opts;
  opts.max_attempts = 2;
  opts.backoff = util::Seconds(30.0);  // absurd; must be clamped to 0.25s
  const auto start = std::chrono::steady_clock::now();
  auto future = cache.submit(
      13, pool,
      [attempts = std::make_shared<std::atomic<int>>(0)](
          const util::CancelToken&) -> RunResult {
        if (attempts->fetch_add(1) == 0) {
          throw util::TransientError("flaky once");
        }
        return tiny_result("clamped");
      },
      opts);
  EXPECT_EQ(future.get()->benchmark, "clamped");
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_LT(waited, 5.0);  // generous CI margin, far below the 30s ask
}

TEST(JobSupervision, CancelledTokenUnwindsSystemRun) {
  SimConfig cfg = short_config();
  System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  util::CancelToken token;
  token.cancel();
  EXPECT_THROW(system.run(&token), util::CancelledError);
}

TEST(JobSupervision, DeadlineUnwindsSystemRunMidFlight) {
  SimConfig cfg = default_sim_config();
  cfg.run_instructions = 50'000'000;  // far longer than the deadline
  cfg.warmup_instructions = 20'000;
  System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  util::CancelToken token;
  token.set_deadline_after(util::Seconds(0.02));
  EXPECT_THROW(system.run(&token), util::TimeoutError);
}

// ---------------------------------------------------------------------------
// Fused-BE numerical guard.

// A poisoned fused step must be rejected before it touches the state,
// recomputed via the reference LU scheme, and the whole run must come
// out bit-identical to a run that never used the fused operator (the
// trip happens on the very first step, so the faulted run is LU
// end-to-end).
TEST(SolverGuard, FusedFaultFallsBackToLuBitIdentically) {
  SimConfig fused_cfg = short_config();
  fused_cfg.fused_thermal = true;
  SimConfig lu_cfg = fused_cfg;
  lu_cfg.fused_thermal = false;

  const workload::WorkloadProfile profile =
      workload::spec2000_profile("crafty");
  System faulted(profile, fused_cfg, nullptr);
  faulted.inject_solver_fault_for_test();
  const RunResult faulted_result = faulted.run();

  System reference(profile, lu_cfg, nullptr);
  const RunResult reference_result = reference.run();

  EXPECT_EQ(faulted_result.solver_guard_trips, 1u);
  EXPECT_EQ(reference_result.solver_guard_trips, 0u);
  // The trip count is the one field the fault may change.
  RunResult expected = reference_result;
  expected.solver_guard_trips = faulted_result.solver_guard_trips;
  EXPECT_EQ(util::diff_fields(faulted_result, expected), "");
}

TEST(SolverGuard, HealthyFusedRunNeverTrips) {
  SimConfig cfg = short_config();
  cfg.fused_thermal = true;
  System system(workload::spec2000_profile("gzip"), cfg, nullptr);
  EXPECT_EQ(system.run().solver_guard_trips, 0u);
}

TEST(SolverGuard, TripIsCountedInMetricsRegistry) {
  obs::Observability::instance().enable_all();
  SimConfig cfg = short_config();
  cfg.fused_thermal = true;
  System system(workload::spec2000_profile("art"), cfg, nullptr);
  system.inject_solver_fault_for_test();
  const RunResult r = system.run();
  obs::Observability::instance().disable_all();
  ASSERT_EQ(r.solver_guard_trips, 1u);

  const obs::MetricsSnapshot snap = obs::metrics().scrape();
  std::uint64_t counted = 0;
  for (const auto& [name, count] : snap.counters) {
    if (name == "thermal.fused_guard_trips") counted = count;
  }
  EXPECT_GE(counted, 1u);
}

// ---------------------------------------------------------------------------
// Persistent store: serialization, warm restart, chaos recovery.

TEST(PersistentCache, SerializationRoundTripsBitExactly) {
  RunResult r = tiny_result("roundtrip");
  r.wall_seconds = 0.1234567890123456789;
  r.max_true_celsius = 84.099999999999994;
  r.hottest_block = "IntReg";
  r.solver_guard_trips = 3;
  const std::string payload = serialize_run_result(r);
  RunResult back;
  ASSERT_TRUE(deserialize_run_result(payload, back));
  EXPECT_EQ(serialize_run_result(back), payload);
  EXPECT_EQ(back.solver_guard_trips, 3u);

  // Structural damage must be detected, not misread.
  RunResult scratch;
  EXPECT_FALSE(deserialize_run_result(
      std::string_view(payload).substr(0, payload.size() / 2), scratch));
  EXPECT_FALSE(deserialize_run_result(payload + "x", scratch));
  EXPECT_FALSE(deserialize_run_result("garbage", scratch));
}

// Seeded fuzz of the decoder behind every disk hit: a truncated,
// extended or byte-flipped payload of a real result either fails to
// decode or decodes to a result that re-encodes to exactly those bytes.
TEST(FieldFuzz, MangledPayloadDecodesExactlyOrNotAtAll) {
  const SimConfig cfg = short_config();
  System system(workload::spec2000_profile("gzip"), cfg,
                make_policy(PolicyKind::kHybrid, {}, cfg));
  const std::string payload = serialize_run_result(system.run());
  std::mt19937_64 rng(26);
  int decoded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string m = payload;
    switch (i % 3) {
      case 0:
        m.resize(static_cast<std::size_t>(rng() % payload.size()));
        break;
      case 1:
        m.append(1 + rng() % 16, static_cast<char>(rng()));
        break;
      default:
        for (std::uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
          m[rng() % m.size()] ^= static_cast<char>(1 + rng() % 255);
        }
    }
    RunResult out;
    if (deserialize_run_result(m, out)) {
      ++decoded;
      ASSERT_EQ(serialize_run_result(out), m) << "case " << i;
    }
  }
  EXPECT_GT(decoded, 0);  // flips inside numbers decode to other values
}

// Seeded fuzz of hydra_run's key setter: every path either takes a
// finite value or throws std::invalid_argument naming the path.
TEST(FieldFuzz, SetterSetsAFiniteValueOrThrows) {
  std::vector<std::string> paths = util::settable_paths<SimConfig>();
  const std::vector<std::string> param_paths =
      util::settable_paths<PolicyParams>();
  paths.insert(paths.end(), param_paths.begin(), param_paths.end());
  const char* values[] = {"-1", "nan", "inf",  "-inf", "1e999", "",
                          "12x", " 3", "+3",  "0x10", "3.5",   "7",
                          "1e3", "true", "-0", "1e-320",
                          "18446744073709551616"};
  std::mt19937_64 rng(26);
  for (int i = 0; i < 4000; ++i) {
    const std::string& path = paths[rng() % paths.size()];
    std::string text = values[rng() % std::size(values)];
    if (rng() % 4 == 0) text += static_cast<char>(' ' + rng() % 95);
    SimConfig cfg;
    PolicyParams params;
    try {
      ASSERT_TRUE(util::set_field(cfg, path, text) ||
                  util::set_field(params, path, text))
          << path;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
      continue;
    }
    const auto finite = [&path, &text](std::string_view p, const auto& v) {
      if constexpr (util::kIsReal<std::remove_cvref_t<decltype(v)>>) {
        EXPECT_TRUE(std::isfinite(util::real_value(v)))
            << path << "=" << text << " left " << p << " non-finite";
      }
    };
    util::for_each_leaf(cfg, finite);
    util::for_each_leaf(params, finite);
  }
  SimConfig cfg;
  EXPECT_FALSE(util::set_field(cfg, "no.such.path", "1"));
  EXPECT_FALSE(util::set_field(cfg, "", "1"));
}

TEST(PersistentCache, SaveLoadAndMissAccounting) {
  PersistentRunCache::Options opts;
  opts.dir = fresh_dir("pc_save_load");
  PersistentRunCache store(opts);
  EXPECT_EQ(store.load(1), nullptr);
  store.save(1, tiny_result("stored"));
  const auto loaded = store.load(1);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->benchmark, "stored");
  const PersistentRunCache::Stats stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(PersistentCache, ReopenRecoversCommittedEntries) {
  const std::string dir = fresh_dir("pc_reopen");
  {
    PersistentRunCache::Options opts;
    opts.dir = dir;
    PersistentRunCache store(opts);
    store.save(5, tiny_result("five"));
    store.save(6, tiny_result("six"));
  }
  PersistentRunCache::Options opts;
  opts.dir = dir;
  PersistentRunCache store(opts);
  EXPECT_EQ(store.stats().recovered, 2u);
  ASSERT_NE(store.load(5), nullptr);
  EXPECT_EQ(store.load(6)->benchmark, "six");
}

TEST(PersistentCache, LruEvictionBoundsDiskUsage) {
  PersistentRunCache::Options opts;
  opts.dir = fresh_dir("pc_lru");
  opts.max_bytes = 512;  // roughly two entries
  PersistentRunCache store(opts);
  for (std::uint64_t key = 1; key <= 6; ++key) {
    store.save(key, tiny_result("entry-" + std::to_string(key)));
  }
  EXPECT_LE(store.total_bytes(), opts.max_bytes);
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_LT(store.entries(), 6u);
  // The most recent save must have survived.
  EXPECT_NE(store.load(6), nullptr);
}

// The journal's one recovery job: a publish intent whose entry never
// survived (crash between journal append and rename, or a vanished
// file) is counted as a lost publish on the next open.
TEST(PersistentCache, LostPublishIsDetectedOnRecovery) {
  const std::string dir = fresh_dir("pc_lost_publish");
  {
    PersistentRunCache::Options opts;
    opts.dir = dir;
    PersistentRunCache store(opts);
    store.save(1, tiny_result("kept"));
    store.save(2, tiny_result("doomed"));
  }
  // Crash simulation: key 2's publish is on the journal but its entry
  // never made it (here: vanishes after the fact).
  std::size_t removed = 0;
  for (const auto& de : fs::recursive_directory_iterator(dir)) {
    if (de.path().filename() == "0000000000000002.run") {
      fs::remove(de.path());
      ++removed;
    }
  }
  ASSERT_EQ(removed, 1u);

  PersistentRunCache::Options opts;
  opts.dir = dir;
  PersistentRunCache store(opts);
  EXPECT_EQ(store.stats().lost_publishes, 1u);
  EXPECT_EQ(store.stats().recovered, 1u);
  EXPECT_NE(store.load(1), nullptr);
}

// Deliberate removals (LRU eviction) are journaled as such and must not
// masquerade as crash-lost publishes at the next open.
TEST(PersistentCache, EvictionIsNotALostPublish) {
  const std::string dir = fresh_dir("pc_evict_journal");
  {
    PersistentRunCache::Options opts;
    opts.dir = dir;
    opts.max_bytes = 512;  // roughly two entries
    PersistentRunCache store(opts);
    for (std::uint64_t key = 1; key <= 6; ++key) {
      store.save(key, tiny_result("entry-" + std::to_string(key)));
    }
    ASSERT_GT(store.stats().evictions, 0u);
  }
  PersistentRunCache::Options opts;
  opts.dir = dir;
  PersistentRunCache store(opts);
  EXPECT_EQ(store.stats().lost_publishes, 0u);
  EXPECT_GT(store.stats().recovered, 0u);
}

struct FileId {
  ino_t inode = 0;
  std::int64_t mtime_ns = 0;
};

FileId file_id(const fs::path& p) {
  struct stat st {};
  EXPECT_EQ(::stat(p.c_str(), &st), 0) << p;
  return {st.st_ino,
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
              st.st_mtim.tv_nsec};
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Opening a store whose journal is already compact leaves manifest.log
// untouched; a journal out of key order, with an `E` line or with a torn
// tail is rewritten, through a temp file and so to a new inode.
TEST(PersistentCache, OpenRewritesOnlyAJournalThatIsNotCompact) {
  const std::string dir = fresh_dir("pc_compact_journal");
  const fs::path manifest = fs::path(dir) / "manifest.log";
  PersistentRunCache::Options opts;
  opts.dir = dir;
  {
    PersistentRunCache store(opts);
    store.save(7, tiny_result("seven"));
    store.save(3, tiny_result("three"));
  }
  const FileId published = file_id(manifest);
  { PersistentRunCache store(opts); }
  const FileId compacted = file_id(manifest);
  EXPECT_NE(compacted.inode, published.inode);
  const std::string compact = slurp(manifest);
  ASSERT_EQ(compact.size(), 2 * 36u);
  EXPECT_EQ(compact.substr(0, 18), "P 0000000000000003");

  {
    PersistentRunCache store(opts);
    EXPECT_EQ(store.stats().recovered, 2u);
  }
  const FileId reopened = file_id(manifest);
  EXPECT_EQ(reopened.inode, compacted.inode);
  EXPECT_EQ(reopened.mtime_ns, compacted.mtime_ns);
  EXPECT_EQ(slurp(manifest), compact);

  for (const char* tail : {"E 0000000000000005\n", "P 0123"}) {
    std::ofstream(manifest, std::ios::app | std::ios::binary) << tail;
    const FileId dirty = file_id(manifest);
    {
      PersistentRunCache store(opts);
      EXPECT_EQ(store.stats().recovered, 2u);
      EXPECT_EQ(store.stats().lost_publishes, 0u);
    }
    EXPECT_NE(file_id(manifest).inode, dirty.inode) << tail;
    EXPECT_EQ(slurp(manifest), compact) << tail;
  }
}

TEST(PersistentCache, WarmRestartServesEverythingFromDisk) {
  const std::string dir = fresh_dir("pc_warm_restart");
  const SimConfig cfg = short_config();
  std::vector<PointSpec> points;
  points.push_back({workload::spec2000_profile("crafty"),
                    PolicyKind::kHybrid, {}, cfg});
  points.push_back({workload::spec2000_profile("gzip"),
                    PolicyKind::kHybrid, {}, cfg});

  std::vector<ExperimentResult> cold;
  {
    ExperimentRunner runner(cfg);
    PersistentRunCache::Options opts;
    opts.dir = dir;
    runner.set_store(std::make_shared<PersistentRunCache>(opts));
    cold = runner.run_points(points);
    EXPECT_GT(runner.cache_stats().disk_stores, 0u);
  }

  // "Process restart": a fresh runner + fresh store handle on the same
  // directory must serve every point from disk and change nothing.
  ExperimentRunner runner(cfg);
  PersistentRunCache::Options opts;
  opts.dir = dir;
  runner.set_store(std::make_shared<PersistentRunCache>(opts));
  const std::vector<ExperimentResult> warm = runner.run_points(points);

  const RunCache::Stats stats = runner.cache_stats();
  EXPECT_EQ(stats.computes, 0u);
  EXPECT_EQ(stats.disk_hits, stats.misses);
  EXPECT_GT(stats.disk_hits, 0u);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(util::diff_fields(warm[i].dtm, cold[i].dtm), "");
    EXPECT_EQ(util::diff_fields(warm[i].baseline, cold[i].baseline), "");
    EXPECT_EQ(warm[i].slowdown, cold[i].slowdown);
  }
}

// The chaos test of the acceptance criteria: SIGKILL-equivalent damage
// to the store — corrupted checksums, truncated entries, stray temp
// files, a torn manifest tail — must be quarantined or cleaned on the
// next open, recomputed where needed, and must never change results.
TEST(PersistentCache, ChaosCorruptionIsQuarantinedAndRecomputed) {
  const std::string dir = fresh_dir("pc_chaos");
  const SimConfig cfg = short_config();
  std::vector<PointSpec> points;
  for (const char* name : {"crafty", "gzip", "art"}) {
    points.push_back({workload::spec2000_profile(name),
                      PolicyKind::kHybrid, {}, cfg});
  }

  std::vector<ExperimentResult> cold;
  {
    ExperimentRunner runner(cfg);
    PersistentRunCache::Options opts;
    opts.dir = dir;
    runner.set_store(std::make_shared<PersistentRunCache>(opts));
    cold = runner.run_points(points);
  }

  // Wreck the store the way a crash mid-write (or a failing disk)
  // would. Deterministic damage, no RNG: sort and pick.
  std::vector<fs::path> entries;
  for (const auto& de : fs::recursive_directory_iterator(dir)) {
    if (de.path().extension() == ".run") entries.push_back(de.path());
  }
  std::sort(entries.begin(), entries.end());
  ASSERT_GE(entries.size(), 3u);
  {
    // Checksum corruption: flip a payload byte.
    std::fstream f(entries[0],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('\x5a');
  }
  {
    // SIGKILL mid-write: truncated entry.
    std::error_code ec;
    fs::resize_file(entries[1], fs::file_size(entries[1]) / 2, ec);
    ASSERT_FALSE(ec);
  }
  {
    // Abandoned temp file and garbage that was never a cache entry.
    std::ofstream(entries[0].parent_path() / "0123.tmp99") << "partial";
    std::ofstream(entries[0].parent_path() / "not-a-key.run")
        << "not a cache entry";
    // Torn manifest tail (killed mid-append).
    std::ofstream(fs::path(dir) / "manifest.log",
                  std::ios::app | std::ios::binary)
        << "P 0123";
  }

  std::size_t recovered = 0;
  std::size_t quarantined = 0;
  std::vector<ExperimentResult> restarted;
  RunCache::Stats stats;
  {
    ExperimentRunner runner(cfg);
    PersistentRunCache::Options opts;
    opts.dir = dir;
    auto store = std::make_shared<PersistentRunCache>(opts);
    const PersistentRunCache::Stats disk = store->stats();
    recovered = disk.recovered;
    quarantined = disk.corrupt;
    EXPECT_GE(disk.tmp_removed, 1u);
    runner.set_store(store);
    restarted = runner.run_points(points);
    stats = runner.cache_stats();
  }

  // Warm where possible, recompute only the damage, never abort.
  EXPECT_GT(recovered, 0u);
  EXPECT_GE(quarantined, 3u);  // flipped + truncated + garbage name
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.computes, 2u);  // exactly the two damaged run entries
  ASSERT_EQ(restarted.size(), cold.size());
  for (std::size_t i = 0; i < restarted.size(); ++i) {
    EXPECT_EQ(util::diff_fields(restarted[i].dtm, cold[i].dtm), "");
    EXPECT_EQ(util::diff_fields(restarted[i].baseline, cold[i].baseline), "");
  }

  // Quarantined evidence is preserved, not deleted.
  std::size_t evidence = 0;
  for (const auto& de :
       fs::directory_iterator(fs::path(dir) / "quarantine")) {
    (void)de;
    ++evidence;
  }
  EXPECT_GE(evidence, 3u);
}

// ---------------------------------------------------------------------------
// Tool-facing config hardening (satellite of the same failure model).

TEST(ConfigRejectUnknown, UnknownKeyDiagnosticCarriesFileLineAndSuggestion) {
  util::Config cfg = util::Config::from_args({"benchmrk=crafty"});
  try {
    cfg.reject_unknown({"benchmark", "policy"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recovery_test.cc"), std::string::npos) << what;
    EXPECT_NE(what.find("benchmrk"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'benchmark'"), std::string::npos)
        << what;
  }
}

// hydra_run's keys are dotted paths; a key that names only the last
// component (the old short spelling) gets the full path suggested.
TEST(ConfigRejectUnknown, SuggestionMatchesLastPathComponent) {
  const util::Config cfg = util::Config::from_args({"cores=8"});
  try {
    cfg.reject_unknown({"benchmark", "core.rob_entries", "multicore.cores"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'multicore.cores'"),
              std::string::npos)
        << e.what();
  }
}

// A retired short key with no close spelling names the shallowest
// paths sharing the most words with it, ties listed; a key sharing no
// word gets no hint. The allowed set is hydra_run's field paths.
TEST(ConfigRejectUnknown, SuggestionSharesTheMostWords) {
  std::vector<std::string> paths = util::settable_paths<sim::SimConfig>();
  const std::vector<std::string> params =
      util::settable_paths<sim::PolicyParams>();
  paths.insert(paths.end(), params.begin(), params.end());
  const std::vector<std::string_view> allowed(paths.begin(), paths.end());
  const auto diagnostic = [&allowed](const std::string& arg) {
    try {
      util::Config::from_args({arg}).reject_unknown(allowed);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto suggests = [](const std::string& what, const char* hint) {
    return what.find(hint) != std::string::npos;
  };

  std::string what = diagnostic("crossover=0.2");
  EXPECT_TRUE(suggests(what,
                       "(did you mean 'hybrid.crossover_gate_fraction' or "
                       "'hybrid.crossover_margin'?)"))
      << what;
  what = diagnostic("power_budget=40");
  EXPECT_TRUE(
      suggests(what, "(did you mean 'multicore.arbiter.die_budget'?)"))
      << what;
  what = diagnostic("migration_cost_cycles=5000");
  EXPECT_TRUE(suggests(
      what, "(did you mean 'multicore.migration_policy.cost_cycles'?)"))
      << what;
  what = diagnostic("bogus_knob=1");
  EXPECT_TRUE(suggests(what, "unknown config key 'bogus_knob'")) << what;
  EXPECT_FALSE(suggests(what, "did you mean")) << what;
}

TEST(ConfigRejectUnknown, KnownKeysPass) {
  util::Config cfg = util::Config::from_args({"benchmark=crafty"});
  EXPECT_NO_THROW(cfg.reject_unknown({"benchmark", "policy"}));
}

// Puts one environment variable back as it was on scope exit.
class EnvRestore {
 public:
  explicit EnvRestore(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvRestore() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  EnvRestore(const EnvRestore&) = delete;
  EnvRestore& operator=(const EnvRestore&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// The run-length environment variables get the same full-string check
// as the CLI keys: `2e6` would otherwise measure a 2-instruction window
// and `abc` an empty one, both printed as a normal result.
TEST(ConfigRejectUnknown, MalformedRunLengthEnvironmentThrows) {
  for (const char* name :
       {"HYDRA_RUN_INSTRUCTIONS", "HYDRA_WARMUP_INSTRUCTIONS"}) {
    const EnvRestore restore(name);
    for (const char* bad : {"2e6", "abc"}) {
      setenv(name, bad, 1);
      try {
        (void)default_sim_config();
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_NO_THROW((void)default_sim_config());
}

// The other two count variables get the same check: a pool width read
// from `4x` or a cache cap read from `10GB` would be 4 threads or a
// 10-byte store, and `abc` fell back to the default without a word.
// hydra_run reads HYDRA_CACHE_MAX_BYTES through util::env_u64 (a
// tools/ ctest covers that path end to end).
TEST(ConfigRejectUnknown, MalformedCountEnvironmentThrows) {
  for (const char* name : {"HYDRA_THREADS", "HYDRA_CACHE_MAX_BYTES"}) {
    const EnvRestore restore(name);
    for (const char* bad : {"4x", "10GB", "abc"}) {
      setenv(name, bad, 1);
      try {
        if (std::string_view(name) == "HYDRA_THREADS") {
          (void)util::ThreadPool::configured_width();
        } else {
          (void)util::env_u64(name, 1);
        }
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
    setenv(name, "3", 1);
    EXPECT_EQ(util::env_u64(name, 1), 3u);
  }
  const EnvRestore restore("HYDRA_THREADS");
  setenv("HYDRA_THREADS", "3", 1);
  EXPECT_EQ(util::ThreadPool::configured_width(), 3u);
}

}  // namespace
}  // namespace hydra::sim
