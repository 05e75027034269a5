// Set-associative cache timing model with true-LRU replacement.
//
// Timing-only: the model tracks tags, not data. Misses return the fill
// latency supplied by the owner (the core composes L1 -> L2 -> memory
// lookups itself so the L2 is shared between the I- and D-side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/fields.h"

namespace hydra::arch {

struct CacheConfig {
  std::size_t size_bytes = 64 * 1024;
  std::size_t line_bytes = 64;
  std::size_t associativity = 2;
};

template <util::FieldsOf<CacheConfig> Self, class F>
void visit_fields(Self& c, F&& f) {
  f("size_bytes", c.size_bytes);
  f("line_bytes", c.line_bytes);
  f("associativity", c.associativity);
}

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// Look up `addr`; on a miss the line is installed (allocate-on-miss for
  /// both reads and writes, modelling a write-allocate cache). Returns
  /// true on hit.
  bool access(std::uint64_t addr);

  /// Look up without installing (for occupancy probes in tests).
  bool probe(std::uint64_t addr) const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t num_sets() const { return sets_; }
  std::size_t associativity() const { return ways_; }

  void reset_stats() { hits_ = misses_ = 0; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< last-access stamp
    bool valid = false;
  };

  std::size_t set_index(std::uint64_t addr) const;
  std::uint64_t tag_of(std::uint64_t addr) const;

  std::size_t sets_;
  std::size_t ways_;
  int line_shift_;
  std::vector<Way> store_;  ///< sets_ * ways_, row-major by set
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hydra::arch
