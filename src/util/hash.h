// Content hashing for cache keys (FNV-1a, 64-bit).
//
// The experiment engine memoizes completed runs keyed by a content hash
// of (workload profile, policy kind, policy parameters, SimConfig).
// util::encode_fields feeds HashSink every field those structs'
// visit_fields lists name (util/fields.h) — never raw struct bytes, which
// would hash padding — so two logically equal configurations always
// collide on the same key and two differing ones practically never do
// (64-bit space, a handful of keys per process).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hydra::util {

class HashSink {
 public:
  HashSink& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
    return *this;
  }

  HashSink& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }

  HashSink& f64(double v) {
    // +0.0 and -0.0 compare equal but have different bit patterns; fold
    // them so equal configs hash equally.
    if (v == 0.0) v = 0.0;
    return u64(std::bit_cast<std::uint64_t>(v));
  }

  HashSink& boolean(bool v) {
    byte(v ? 1 : 0);
    return *this;
  }

  /// Length-prefixed so {"ab","c"} and {"a","bc"} differ.
  HashSink& str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }

  std::uint64_t digest() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;  // FNV prime
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace hydra::util
