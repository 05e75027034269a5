#include "arch/tlb.h"

#include <bit>
#include <stdexcept>

namespace hydra::arch {

Tlb::Tlb(std::size_t entries, std::size_t page_bytes) {
  if (entries == 0) throw std::invalid_argument("TLB needs entries");
  if (page_bytes == 0 || !std::has_single_bit(page_bytes)) {
    throw std::invalid_argument("page size must be a power of two");
  }
  page_shift_ = std::countr_zero(page_bytes);
  entries_.assign(entries, Entry{});
}

bool Tlb::access(std::uint64_t addr) {
  const std::uint64_t vpn = addr >> page_shift_;
  ++stamp_;
  for (Entry& e : entries_) {
    if (e.lru != 0 && e.vpn == vpn) {
      e.lru = stamp_;
      ++hits_;
      return true;
    }
  }
  // Miss: fill the first invalid entry, else the least recently used.
  Entry* victim = nullptr;
  for (Entry& e : entries_) {
    if (e.lru == 0) {
      victim = &e;
      break;
    }
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  *victim = {vpn, stamp_};
  ++misses_;
  return false;
}

}  // namespace hydra::arch
