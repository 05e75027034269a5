#include "arch/cache.h"

#include <bit>
#include <stdexcept>

namespace hydra::arch {

Cache::Cache(const CacheConfig& cfg) {
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

std::size_t Cache::set_index(std::uint64_t addr) const {
  return static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
}

std::uint64_t Cache::tag_of(std::uint64_t addr) const {
  return addr >> tag_shift_;  // sets_ is a power of two
}

bool Cache::access(std::uint64_t addr) {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Way* ways = &store_[set * ways_];
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

bool Cache::probe(std::uint64_t addr) const {
  const std::size_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Way* ways = &store_[set * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (ways[w].lru != 0 && ways[w].tag == tag) return true;
  }
  return false;
}

}  // namespace hydra::arch
