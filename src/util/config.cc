#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace hydra::util {
namespace {

/// Edit distance for "did you mean" hints (small strings, O(n*m)).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Config Config::from_string(std::string_view text) {
  Config cfg;
  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos
                                                      : nl - pos);
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (!line.empty()) {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("config line " + std::to_string(line_no) +
                                    ": expected key=value, got '" +
                                    std::string(line) + "'");
      }
      const std::string_view key = trim(line.substr(0, eq));
      const std::string_view value = trim(line.substr(eq + 1));
      if (key.empty()) {
        throw std::invalid_argument("config line " + std::to_string(line_no) +
                                    ": empty key");
      }
      cfg.set(std::string(key), std::string(value));
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return cfg;
}

Config Config::from_args(const std::vector<std::string>& args) {
  Config cfg;
  for (const auto& arg : args) {
    // GNU-style spelling is cosmetic: --trace-csv=out.csv and
    // trace_csv=out.csv set the same key.
    std::string_view a = arg;
    while (!a.empty() && a.front() == '-') a.remove_prefix(1);
    const std::size_t eq = a.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("expected key=value argument, got '" + arg +
                                  "'");
    }
    std::string key(trim(a.substr(0, eq)));
    std::replace(key.begin(), key.end(), '-', '_');
    cfg.set(std::move(key), std::string(trim(a.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::contains(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> Config::find(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(std::string_view key,
                               std::string fallback) const {
  const auto v = find(key);
  return v ? *v : std::move(fallback);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

void Config::reject_unknown(const std::vector<std::string_view>& allowed,
                            std::source_location where) const {
  for (const auto& [key, value] : values_) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    std::string msg = std::string(where.file_name()) + ":" +
                      std::to_string(where.line()) +
                      ": unknown config key '" + key + "'";
    std::string_view best;
    std::size_t best_dist = key.size();
    for (const std::string_view cand : allowed) {
      const std::string_view last = cand.substr(cand.rfind('.') + 1);
      const std::size_t d =
          std::min(edit_distance(key, cand), edit_distance(key, last));
      if (d < best_dist) {
        best_dist = d;
        best = cand;
      }
    }
    if (!best.empty() && best_dist <= 3) {
      msg += " (did you mean '" + std::string(best) + "'?)";
    }
    throw std::invalid_argument(msg);
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const char* end = v + std::strlen(v);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(std::string(name) + ": cannot parse '" + v +
                                "' as an unsigned integer");
  }
  return parsed;
}

}  // namespace hydra::util
