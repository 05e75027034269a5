// arch::Cache against its stamp-based reference twin (cache_reference.h).
//
//  * Over seeded random, conflict-stride, sweep-past-capacity and
//    hit-at-every-recency-position streams, every access's hit or miss,
//    the probe() answers after it and the hit/miss counters must equal
//    the twin's, at 1 set x 1 way, the default 2-way L1, the 8-way 4 MiB
//    L2 and 255 ways.
//  * Tags are 32 bits: the largest address whose tag fits is cached, and
//    the next one throws std::out_of_range without touching the cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cache.h"
#include "cache_reference.h"

namespace hydra::arch {
namespace {

struct Geometry {
  const char* name;
  CacheConfig cfg;
};

// Names the parameter in test listings by its name, not its bytes.
void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

const Geometry kGeometries[] = {
    {"OneSetOneWay", {64, 64, 1}},
    {"L1TwoWay", {64 * 1024, 64, 2}},
    {"L2EightWay", {4 * 1024 * 1024, 128, 8}},
    {"FourSets255Ways", {4 * 255 * 64, 64, 255}},
};

// Synthetic addresses start below 0x70000000; so do these streams.
constexpr std::uint64_t kBase = 0x4000'0000;

class CacheTwin : public ::testing::TestWithParam<Geometry> {
 protected:
  CacheTwin() : cache_(GetParam().cfg), ref_(GetParam().cfg) {}

  std::uint64_t line_bytes() const { return GetParam().cfg.line_bytes; }
  std::uint64_t lines() const {
    return GetParam().cfg.size_bytes / GetParam().cfg.line_bytes;
  }
  std::uint64_t sets() const { return cache_.num_sets(); }
  std::uint64_t ways() const { return cache_.associativity(); }
  /// Address of the `k`-th line that maps to set `set`.
  std::uint64_t line_in_set(std::uint64_t set, std::uint64_t k) const {
    return kBase + (k * sets() + set) * line_bytes();
  }
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }

  /// Access `addr` in both models, then probe it and `other` in both.
  ::testing::AssertionResult step(std::uint64_t addr, std::uint64_t other) {
    const bool hit = cache_.access(addr);
    if (hit != ref_.access(addr)) {
      return ::testing::AssertionFailure()
             << "access 0x" << std::hex << addr << " hit " << hit;
    }
    for (const std::uint64_t a : {addr, other}) {
      if (cache_.probe(a) != ref_.probe(a)) {
        return ::testing::AssertionFailure()
               << "probe 0x" << std::hex << a << " after 0x" << addr;
      }
    }
    return ::testing::AssertionSuccess();
  }

  void expect_counters_equal() const {
    EXPECT_EQ(cache_.hits(), ref_.hits());
    EXPECT_EQ(cache_.misses(), ref_.misses());
  }

  Cache cache_;
  ReferenceCache ref_;
  std::mt19937_64 rng_{20040101};
};

TEST_P(CacheTwin, RandomStream) {
  // Lines drawn from twice the capacity, at random offsets in the line.
  const std::uint64_t pool = 2 * lines();
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t addr =
        kBase + draw(pool) * line_bytes() + draw(line_bytes());
    const std::uint64_t other = kBase + draw(pool) * line_bytes();
    ASSERT_TRUE(step(addr, other)) << "at access " << i;
  }
  expect_counters_equal();
  EXPECT_GT(cache_.hits(), 0u);
  EXPECT_GT(cache_.misses(), 0u);
}

TEST_P(CacheTwin, ConflictStrideStream) {
  // Rounds of 1 .. 2 * ways + 1 lines of one set, cycled 1-4 times: at
  // most `ways` lines hit after their first pass, more thrash.
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t set = draw(sets());
    const std::uint64_t k = 1 + draw(2 * ways() + 1);
    const std::uint64_t first = draw(4 * ways());
    const int passes = 1 + static_cast<int>(draw(4));
    for (int pass = 0; pass < passes; ++pass) {
      for (std::uint64_t j = 0; j < k; ++j) {
        const std::uint64_t addr = line_in_set(set, first + j);
        const std::uint64_t other = line_in_set(set, draw(6 * ways()));
        ASSERT_TRUE(step(addr, other)) << "round " << round;
      }
    }
  }
  expect_counters_equal();
  EXPECT_GT(cache_.hits(), 0u);
  EXPECT_GT(cache_.misses(), 0u);
}

TEST_P(CacheTwin, SweepPastCapacity) {
  // Exactly the capacity: only the first of three passes misses.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < lines(); ++l) {
      ASSERT_TRUE(step(kBase + l * line_bytes(), kBase)) << "line " << l;
    }
  }
  expect_counters_equal();
  EXPECT_EQ(cache_.misses(), lines());

  // One line more per set: LRU misses every access of every pass.
  cache_.reset_stats();
  const std::uint64_t past = lines() + sets();
  const std::uint64_t base = kBase + lines() * line_bytes();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < past; ++l) {
      ASSERT_TRUE(step(base + l * line_bytes(), kBase)) << "line " << l;
    }
  }
  EXPECT_EQ(cache_.hits(), 0u);
  EXPECT_EQ(cache_.misses(), 3 * past);
}

TEST_P(CacheTwin, HitAtEveryRecencyPosition) {
  std::vector<std::uint64_t> filled = {0};
  if (sets() > 1) filled.push_back(sets() - 1);
  for (const std::uint64_t set : filled) {
    // The set's lines, most recently used first.
    std::vector<std::uint64_t> order;
    for (std::uint64_t k = 0; k < ways(); ++k) {
      const std::uint64_t addr = line_in_set(set, k);
      ASSERT_TRUE(step(addr, line_in_set(set, ways())));
      order.insert(order.begin(), addr);
    }
    // Every position in turn, then random ones.
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t p = i < static_cast<int>(ways())
                                  ? static_cast<std::uint64_t>(i)
                                  : draw(ways());
      const std::uint64_t addr = order[p];
      ASSERT_EQ(cache_.find(addr).pos, static_cast<int>(p));
      ASSERT_TRUE(step(addr, order.back()));
      std::rotate(order.begin(), order.begin() + static_cast<long>(p),
                  order.begin() + static_cast<long>(p) + 1);
    }
  }
  expect_counters_equal();
  EXPECT_EQ(cache_.misses(), filled.size() * ways());
}

TEST_P(CacheTwin, TagWiderThanThirtyTwoBitsThrows) {
  const int tag_shift =
      std::countr_zero(line_bytes()) + std::countr_zero(sets());
  const std::uint64_t first_wide = std::uint64_t{1} << (32 + tag_shift);
  const std::uint64_t widest_fit = first_wide - 1;
  EXPECT_FALSE(cache_.access(widest_fit));
  EXPECT_TRUE(cache_.probe(widest_fit));
  EXPECT_THROW(cache_.access(first_wide), std::out_of_range);
  EXPECT_THROW((void)cache_.probe(first_wide), std::out_of_range);
  EXPECT_THROW((void)cache_.find(first_wide), std::out_of_range);
  EXPECT_TRUE(cache_.access(widest_fit));
  EXPECT_EQ(cache_.hits(), 1u);
  EXPECT_EQ(cache_.misses(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheTwin,
                         ::testing::ValuesIn(kGeometries),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace hydra::arch
