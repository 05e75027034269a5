#include "arch/cache.h"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace hydra::arch {

void Cache::throw_wide_tag(std::uint64_t addr) {
  throw std::out_of_range("cache tag of address " + std::to_string(addr) +
                          " needs more than 32 bits");
}

Cache::Cache(const CacheConfig& cfg) {
  if (cfg.line_bytes == 0 || !std::has_single_bit(cfg.line_bytes)) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (cfg.associativity == 0) {
    throw std::invalid_argument("associativity must be positive");
  }
  if (cfg.associativity > std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument("associativity must be at most 255");
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
  tags_.assign(sets_ * ways_, 0);
  fill_.assign(sets_, 0);
}

}  // namespace hydra::arch
