// Stamp-based reference model for arch::Cache.
//
// This is the cache as it was written before the per-set recency lists:
// each way holds a 64-bit tag and a last-access stamp (0 = empty), a hit
// restamps its way, and a miss fills the first empty way, else the one
// with the least stamp. arch::Cache must answer every access and probe
// the same way and count the same hits and misses
// (cache_twin_test.cc), so this twin pins the replacement rule the
// recency lists encode.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "arch/cache.h"

namespace hydra::arch {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg) {
    if (cfg.line_bytes == 0 || !std::has_single_bit(cfg.line_bytes)) {
      throw std::invalid_argument("cache line size must be a power of two");
    }
    if (cfg.associativity == 0) {
      throw std::invalid_argument("associativity must be positive");
    }
    const std::size_t lines = cfg.size_bytes / cfg.line_bytes;
    if (lines == 0 || lines % cfg.associativity != 0) {
      throw std::invalid_argument("cache size/line/ways are inconsistent");
    }
    sets_ = lines / cfg.associativity;
    if (!std::has_single_bit(sets_)) {
      throw std::invalid_argument("number of sets must be a power of two");
    }
    ways_ = cfg.associativity;
    line_shift_ = std::countr_zero(cfg.line_bytes);
    tag_shift_ = line_shift_ + std::countr_zero(sets_);
    store_.assign(sets_ * ways_, Way{});
  }

  bool access(std::uint64_t addr) {
    Way* ways = &store_[set_index(addr) * ways_];
    const std::uint64_t tag = addr >> tag_shift_;
    ++stamp_;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (ways[w].lru != 0 && ways[w].tag == tag) {
        ways[w].lru = stamp_;
        ++hits_;
        return true;
      }
    }
    // Miss: fill the LRU (or first invalid) way.
    std::size_t victim = 0;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (ways[w].lru == 0) {
        victim = w;
        break;
      }
      if (ways[w].lru < ways[victim].lru) victim = w;
    }
    ways[victim] = {tag, stamp_};
    ++misses_;
    return false;
  }

  bool probe(std::uint64_t addr) const {
    const Way* ways = &store_[set_index(addr) * ways_];
    const std::uint64_t tag = addr >> tag_shift_;
    for (std::size_t w = 0; w < ways_; ++w) {
      if (ways[w].lru != 0 && ways[w].tag == tag) return true;
    }
    return false;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< last-access stamp; 0 = invalid
  };

  std::size_t set_index(std::uint64_t addr) const {
    return static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
  }

  std::size_t sets_;
  std::size_t ways_;
  int line_shift_;
  int tag_shift_;
  std::vector<Way> store_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hydra::arch
