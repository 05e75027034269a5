// Fully-associative TLB timing model (ITB / DTB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hydra::arch {

/// Small fully-associative translation buffer with LRU replacement.
/// Timing-only: a miss costs the owner a fixed fill penalty.
class Tlb {
 public:
  Tlb(std::size_t entries = 128, std::size_t page_bytes = 8192);

  /// Translate; installs on miss. Returns true on hit.
  bool access(std::uint64_t addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// 16 bytes: lru == 0 marks an empty entry (stamps are
  /// pre-incremented, so a filled entry's is >= 1).
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t lru = 0;
  };
  static_assert(sizeof(Entry) == 16);

  int page_shift_;
  std::vector<Entry> entries_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace hydra::arch
