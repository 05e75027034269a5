// Observability layer: metrics correctness under concurrency and trace
// export well-formedness. The allocation-free record-path contracts live
// in alloc_test, beside the operator-new counter they need.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace hydra::obs {
namespace {

TEST(Metrics, CounterConcurrentIncrements) {
  Registry reg;
  reg.set_enabled(true);
  const Counter c = reg.counter("test.hits");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();

  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test.hits");
  EXPECT_EQ(snap.counters[0].second, kThreads * kPerThread);
}

TEST(Metrics, CounterHandleIsSharedByName) {
  Registry reg;
  reg.set_enabled(true);
  const Counter a = reg.counter("same");
  const Counter b = reg.counter("same");
  a.add(2);
  b.add(3);
  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST(Metrics, HistogramBucketsAndConcurrentRecords) {
  Registry reg;
  reg.set_enabled(true);
  const Histogram h = reg.histogram("test.latency", {1.0, 2.0, 4.0});

  // Deterministic bucket placement: v lands in the first bucket with
  // v <= bound; past the last bound it lands in the overflow bucket.
  h.record(0.5);  // bucket 0
  h.record(1.0);  // bucket 0 (inclusive upper bound)
  h.record(1.5);  // bucket 1
  h.record(3.0);  // bucket 2
  h.record(9.0);  // overflow
  MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  ASSERT_EQ(hs.buckets.size(), 4u);
  EXPECT_EQ(hs.buckets[0], 2u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 1u);
  EXPECT_EQ(hs.buckets[3], 1u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 1.5 + 3.0 + 9.0);

  // Concurrent records merge exactly once threads have quiesced.
  reg.reset();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(i % 8));
      }
    });
  }
  for (auto& w : workers) w.join();
  snap = reg.scrape();
  EXPECT_EQ(snap.histograms[0].count, kThreads * kPerThread);
}

TEST(Metrics, HistogramReboundThrows) {
  Registry reg;
  (void)reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW((void)reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW((void)reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("empty", {}), std::invalid_argument);
}

TEST(Metrics, GaugeLastWriterWins) {
  Registry reg;
  reg.set_enabled(true);
  const Gauge g = reg.gauge("test.width");
  g.set(4.0);
  g.set(8.0);
  const MetricsSnapshot snap = reg.scrape();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 8.0);
}

// A raw pool job that throws is contained by the worker loop and counted
// through the failure hook obs installs; the worker goes on serving.
TEST(Metrics, PoolCountsContainedExceptions) {
  Registry& reg = Observability::instance().metrics();
  const auto contained = [&reg] {
    for (const auto& [name, count] : reg.scrape().counters) {
      if (name == "pool.contained_exceptions") return count;
    }
    return std::uint64_t{0};
  };
  reg.set_enabled(true);
  const std::uint64_t before = contained();
  std::atomic<bool> next_ran{false};
  {
    util::ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("raw job failure"); });
    pool.submit([&next_ran] { next_ran = true; });
  }  // the destructor drains both jobs, then joins
  reg.set_enabled(false);
  EXPECT_EQ(contained() - before, 1u);
  EXPECT_TRUE(next_ran);
}

/// Minimal structural JSON validation: balanced braces/brackets outside
/// string literals, with escape handling. Catches truncated or
/// mis-nested output without a JSON parser dependency.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char ch : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != ch) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST(Trace, ChromeJsonWellFormed) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("gzip/Hyb", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "policy_engage", 10.0,
                 "gate", 0.5);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "dvs_transition_start", 20.0,
                 "from_level", 0.0, "to_level", 1.0);
  tracer.counter(sim, TimeDomain::kSim, "Tmax_celsius", 30.0, 82.5);
  { const ScopedSpan span(tracer, "system", "measure", "gzip \"quoted\""); }
  ASSERT_EQ(tracer.size(), 4u);

  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();

  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("policy_engage"), std::string::npos);
  EXPECT_NE(json.find("dvs_transition_start"), std::string::npos);
  EXPECT_NE(json.find("Tmax_celsius"), std::string::npos);
  // The dynamic label (with its embedded quotes escaped) replaces the
  // span's static name.
  EXPECT_NE(json.find("gzip \\\"quoted\\\""), std::string::npos);
  // Lane metadata names the sim process.
  EXPECT_NE(json.find("gzip/Hyb"), std::string::npos);
}

TEST(Trace, CsvHasOneRowPerEvent) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("lane", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "a", 1.0);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "b", 2.0);
  std::ostringstream out;
  tracer.write_csv(out);
  const std::string csv = out.str();
  std::size_t rows = 0;
  for (const char ch : csv) rows += ch == '\n';
  EXPECT_EQ(rows, 3u);  // header + 2 events
}

TEST(Trace, ClearDropsEventsAndKeepsLanes) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::uint32_t sim = tracer.new_lane("lane", TimeDomain::kSim);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "a", 1.0);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  tracer.instant(sim, TimeDomain::kSim, "dtm", "b", 2.0);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Trace, ConcurrentRecordingLosesNothingOnceJoined) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.instant(0, TimeDomain::kSim, "cat", "ev",
                       static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(SimLane, ScopeNestsAndRestores) {
  EXPECT_EQ(SimLaneScope::current(), SimLaneScope::kNoLane);
  {
    SimLaneScope outer(3);
    EXPECT_EQ(SimLaneScope::current(), 3u);
    {
      SimLaneScope inner(7);
      EXPECT_EQ(SimLaneScope::current(), 7u);
    }
    EXPECT_EQ(SimLaneScope::current(), 3u);
  }
  EXPECT_EQ(SimLaneScope::current(), SimLaneScope::kNoLane);
}

}  // namespace
}  // namespace hydra::obs
