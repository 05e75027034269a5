// Set-associative cache timing model with true-LRU replacement.
//
// Timing-only: the model tracks tags, not data. Misses return the fill
// latency supplied by the owner (the core composes L1 -> L2 -> memory
// lookups itself so the L2 is shared between the I- and D-side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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

/// Each set keeps its valid tags as 32-bit values, most recently used
/// first, plus a one-byte fill count. A hit moves its tag to the front;
/// a miss puts the new tag in front and, in a full set, drops the last
/// (least recently used) one. Lines are never invalidated, so this is
/// exactly "fill the first empty way, else the least recently stamped"
/// (tests/cache_reference.h) without a stamp to store.
///
/// Associativity is at most 255, and an address whose tag needs more
/// than 32 bits throws std::out_of_range rather than aliasing (the
/// default L1s cover addresses below 2^47, the L2 below 2^51).
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  /// One scan of `addr`'s set, which touch() then acts on.
  struct Lookup {
    std::size_t set = 0;
    std::uint32_t tag = 0;
    int pos = -1;  ///< recency position of a hit (0 = MRU); -1 on a miss
    bool hit() const { return pos >= 0; }
  };

  /// Find `addr` without installing it or counting the access.
  Lookup find(std::uint64_t addr) const {
    const std::uint64_t tag = addr >> tag_shift_;  // sets_ is a power of two
    if (tag > 0xffff'ffffu) [[unlikely]] throw_wide_tag(addr);
    Lookup l;
    l.set = static_cast<std::size_t>((addr >> line_shift_) & (sets_ - 1));
    l.tag = static_cast<std::uint32_t>(tag);
    const std::uint32_t* tags = &tags_[l.set * ways_];
    const int n = fill_[l.set];
    for (int i = 0; i < n; ++i) {
      if (tags[i] == l.tag) {
        l.pos = i;
        break;
      }
    }
    return l;
  }

  /// Count the access `l` found and apply it: promote a hit to the
  /// front, or install a miss. No other access to this cache may come
  /// between the find() and its touch(). Returns true on hit.
  bool touch(const Lookup& l) {
    // Rotate the tag in at the front: places 0 .. last each take the
    // value before them. A hit's rotation ends at its old place; a miss's
    // one past the valid tags, or at a full set's end, dropping its LRU.
    std::size_t last = 0;
    if (l.hit()) {
      last = static_cast<std::size_t>(l.pos);
      ++hits_;
    } else {
      std::uint8_t& n = fill_[l.set];
      if (n < ways_) ++n;
      last = n - 1u;
      ++misses_;
    }
    std::uint32_t* tags = &tags_[l.set * ways_];
    std::uint32_t carry = l.tag;
    for (std::size_t i = 0; i <= last; ++i) std::swap(carry, tags[i]);
    return l.hit();
  }

  /// find() then touch(): allocate-on-miss for both reads and writes,
  /// modelling a write-allocate cache. Returns true on hit.
  bool access(std::uint64_t addr) { return touch(find(addr)); }

  /// Whether `addr` is resident; installs and counts nothing. For tests.
  bool probe(std::uint64_t addr) const { return find(addr).hit(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t num_sets() const { return sets_; }
  std::size_t associativity() const { return ways_; }

  void reset_stats() { hits_ = misses_ = 0; }

 private:
  [[noreturn]] static void throw_wide_tag(std::uint64_t addr);

  std::size_t sets_;
  std::size_t ways_;
  int line_shift_;
  int tag_shift_;  ///< line_shift_ + log2(sets_)
  std::vector<std::uint32_t> tags_;  ///< sets_ * ways_, MRU first per set
  std::vector<std::uint8_t> fill_;   ///< valid tags per set
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hydra::arch
