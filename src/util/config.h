// Minimal key/value configuration store.
//
// Experiments and examples accept `key=value` overrides (from argv or from
// files with one pair per line, '#' comments). Values parse strictly
// (parse_value) and fail loudly rather than silently defaulting, per the
// fail-fast philosophy of the rest of the library.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hydra::util {

[[noreturn]] inline void throw_unparsable(std::string_view name,
                                          std::string_view text,
                                          const char* as) {
  throw std::invalid_argument(std::string(name) + ": cannot parse '" +
                              std::string(text) + "' as " + as);
}

/// Parses all of `text` into `out`: a bool (true/false, 1/0, yes/no,
/// on/off), an integer, or a real (double, or a type constructible from
/// one). Throws std::invalid_argument naming `name` on trailing
/// characters, a sign on an unsigned type, a value out of the type's
/// range, or a real that is not finite.
template <class T>
void parse_value(T& out, std::string_view name, std::string_view text) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  if constexpr (std::is_same_v<T, bool>) {
    if (text == "true" || text == "1" || text == "yes" || text == "on") {
      out = true;
    } else if (text == "false" || text == "0" || text == "no" ||
               text == "off") {
      out = false;
    } else {
      throw_unparsable(name, text, "a bool");
    }
  } else if constexpr (std::is_integral_v<T>) {
    T v{};
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last) {
      throw_unparsable(name, text,
                       std::is_signed_v<T> ? "an integer"
                                           : "an unsigned integer");
    }
    out = v;
  } else {
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last || !std::isfinite(v)) {
      throw_unparsable(name, text, "a finite number");
    }
    out = T(v);
  }
}

class Config {
 public:
  Config() = default;

  /// Parse "key=value" pairs, one per line; '#' starts a comment; blank
  /// lines ignored. Throws std::invalid_argument on malformed lines.
  static Config from_string(std::string_view text);

  /// Parse argv-style overrides ("key=value" each; leading dashes are
  /// dropped and dashes in the key read as underscores, so
  /// `--trace-csv=x` sets `trace_csv`). Unrecognised shapes throw
  /// std::invalid_argument.
  static Config from_args(const std::vector<std::string>& args);

  /// Set/overwrite a key.
  void set(std::string key, std::string value);

  bool contains(std::string_view key) const;

  /// The raw value, or `fallback` when the key is absent.
  std::string get_string(std::string_view key, std::string fallback) const;

  /// The value parsed as a T by parse_value, or `fallback` when the key
  /// is absent. Throws std::invalid_argument when present but malformed.
  template <class T>
  T get(std::string_view key, T fallback) const {
    if (const auto v = find(key)) parse_value(fallback, key, *v);
    return fallback;
  }

  /// All keys in sorted order (for diagnostics).
  std::vector<std::string> keys() const;

  /// Fail fast on option typos: throw std::invalid_argument when this
  /// config holds a key outside `allowed`. The message is a one-line
  /// diagnostic carrying the caller's file:line and the offending key
  /// (plus the closest allowed spelling, also matched against the last
  /// component of a dotted key, so `cores` suggests `multicore.cores`;
  /// failing that, the shallowest keys sharing the most words split at
  /// '_' and '.', so `power_budget` suggests
  /// `multicore.arbiter.die_budget`), so tools exit with an actionable
  /// error instead of silently ignoring a misspelt flag.
  void reject_unknown(
      const std::vector<std::string_view>& allowed,
      std::source_location where = std::source_location::current()) const;

  /// Merge `other` into this config; other's values win on conflict.
  void merge(const Config& other);

 private:
  std::optional<std::string> find(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
};

/// An unsigned count from environment variable `name`, or `fallback`
/// when it is unset or empty. The whole value must parse: `4x`, `10GB`
/// or `abc` throws std::invalid_argument naming the variable.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace hydra::util
