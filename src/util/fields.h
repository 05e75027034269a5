// One field list per struct, and the walkers derived from it.
//
// Every config and result struct that is hashed, stored, printed or set
// from the command line declares, right below itself,
//
//   template <util::FieldsOf<Foo> Self, class F>
//   void visit_fields(Self& s, F&& f) {
//     f("a", s.a);
//     f("b", s.b);
//   }
//
// calling f once per member, with the member's name. Self is Foo or
// const Foo, so one list serves readers and writers. Everything else
// follows from the C++ type of each member:
//
//   encode_fields   feeds a sink by type: signed integers as i64,
//                   unsigned as u64, double/Quantity/Celsius as f64,
//                   bool, enums as u64, strings and vectors length-
//                   prefixed, structs member by member. Into a HashSink
//                   it is a cache key; into a ByteSink, the persistent
//                   cache's payload.
//   decode_fields   the inverse of encode_fields over a byte source.
//   write_json_members  every leaf as a JSON key named by its path.
//   for_each_leaf   every leaf with its dotted path ("core.l2.size_bytes").
//                   It descends into aggregate structs only, so a vector
//                   or a class such as FaultCampaign is one leaf.
//   set_field       parses text into the leaf at a dotted path.
//   diff_fields     names every leaf on which two values differ.
#pragma once

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/config.h"
#include "util/json.h"
#include "util/units.h"

namespace hydra::util {

/// Constrains a visit_fields overload to T and const T.
template <class Self, class T>
concept FieldsOf = std::same_as<std::remove_const_t<Self>, T>;

/// double, a dimensioned Quantity or a Celsius point: encoded, printed
/// and parsed as its raw double value.
template <class T>
inline constexpr bool kIsReal = std::is_floating_point_v<T> ||
                                std::is_same_v<T, Celsius> ||
                                requires { typename T::Dimension; };

template <class T>
inline constexpr bool kIsVector = requires {
  requires std::is_same_v<T, std::vector<typename T::value_type>>;
};

/// A struct that for_each_leaf descends into.
template <class T>
inline constexpr bool kIsFieldStruct =
    std::is_class_v<T> && std::is_aggregate_v<T>;

/// A leaf set_field can parse: bool, an integer or a real.
template <class T>
inline constexpr bool kIsSettable = std::is_arithmetic_v<T> || kIsReal<T>;

template <class T>
double real_value(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v;
  } else {
    return v.value();
  }
}

/// Little-endian byte encoding for encode_fields, for the member types a
/// RunResult has. Doubles keep their exact bits (HashSink folds -0.0
/// into 0.0; this does not).
struct ByteSink {
  std::string& out;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out.append(s);
  }
};

template <class Sink, class T>
void encode_fields(Sink& sink, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    sink.boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    sink.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    sink.i64(v);
  } else if constexpr (std::is_integral_v<T>) {
    sink.u64(v);
  } else if constexpr (kIsReal<T>) {
    sink.f64(real_value(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    sink.str(v);
  } else if constexpr (kIsVector<T>) {
    sink.u64(v.size());
    for (const auto& e : v) encode_fields(sink, e);
  } else {
    visit_fields(v, [&sink](std::string_view, const auto& m) {
      encode_fields(sink, m);
    });
  }
}

/// Inverse of encode_fields over a ByteSink stream. `source` supplies
/// u64(), f64() and str() and keeps its own failure state. Only the
/// member types a stored RunResult has are decodable.
template <class Source, class T>
void decode_fields(Source& source, T& v) {
  if constexpr (std::is_integral_v<T> && std::is_unsigned_v<T> &&
                !std::is_same_v<T, bool>) {
    v = static_cast<T>(source.u64());
  } else if constexpr (std::is_same_v<T, double>) {
    v = source.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = source.str();
  } else {
    static_assert(kIsFieldStruct<T>, "decode_fields: no decoder for type");
    visit_fields(v, [&source](std::string_view, auto& m) {
      decode_fields(source, m);
    });
  }
}

/// Calls f(path, leaf) for every leaf of `obj`, depth first in visit
/// order; `path` joins member names with '.'.
template <class T, class F>
void for_each_leaf(T& obj, F&& f, std::string_view prefix = {}) {
  visit_fields(obj, [&f, prefix](std::string_view name, auto& m) {
    std::string path(prefix);
    if (!path.empty()) path += '.';
    path += name;
    if constexpr (kIsFieldStruct<std::remove_cvref_t<decltype(m)>>) {
      for_each_leaf(m, f, path);
    } else {
      f(std::string_view(path), m);
    }
  });
}

/// Writes every leaf of `v` as a key of the JSON object being written,
/// named by its dotted path, so a caller can add keys of its own.
template <class T>
void write_json_members(JsonWriter& w, const T& v) {
  for_each_leaf(v, [&w](std::string_view path, const auto& leaf) {
    using L = std::remove_cvref_t<decltype(leaf)>;
    w.key(std::string(path));
    if constexpr (std::is_same_v<L, bool> || std::is_same_v<L, std::string>) {
      w.value(leaf);
    } else if constexpr (std::is_integral_v<L> && std::is_signed_v<L>) {
      w.value(static_cast<long long>(leaf));
    } else if constexpr (std::is_integral_v<L> || std::is_enum_v<L>) {
      w.value(static_cast<unsigned long long>(leaf));
    } else {
      w.value(real_value(leaf));
    }
  });
}

/// Plain text of a scalar leaf: shortest round-trip form for reals.
template <class T>
std::string leaf_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<long long>(v));
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (kIsReal<T>) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), real_value(v));
    return std::string(buf, res.ptr);
  } else {
    return v;
  }
}

/// Parses `text` into the settable leaf of `obj` at dotted `path`.
/// Returns false when no settable leaf has that path: enums, strings,
/// vectors and non-aggregate classes are not settable. Throws as
/// util::parse_value does, naming `path`.
template <class T>
bool set_field(T& obj, std::string_view path, std::string_view text) {
  bool found = false;
  for_each_leaf(obj, [&](std::string_view p, auto& leaf) {
    if constexpr (kIsSettable<std::remove_cvref_t<decltype(leaf)>>) {
      if (p == path) {
        parse_value(leaf, path, text);
        found = true;
      }
    }
  });
  return found;
}

/// Dotted paths of every leaf set_field accepts on a T.
template <class T>
std::vector<std::string> settable_paths() {
  const T obj{};
  std::vector<std::string> out;
  for_each_leaf(obj, [&out](std::string_view p, const auto& leaf) {
    if constexpr (kIsSettable<std::remove_cvref_t<decltype(leaf)>>) {
      out.emplace_back(p);
    }
  });
  return out;
}

/// One "path: a != b" line per leaf on which `a` and `b` differ; empty
/// when they are equal. Leaves compare by their ByteSink encoding, so
/// doubles compare bit for bit: -0.0 differs from 0.0, and a NaN equals
/// only the same NaN.
template <class T>
std::string diff_fields(const T& a, const T& b) {
  struct Leaf {
    std::string path, bytes, text;
  };
  const auto leaves = [](const T& v) {
    std::vector<Leaf> out;
    for_each_leaf(v, [&out](std::string_view path, const auto& leaf) {
      Leaf l{std::string(path), {}, leaf_text(leaf)};
      ByteSink sink{l.bytes};
      encode_fields(sink, leaf);
      out.push_back(std::move(l));
    });
    return out;
  };
  const std::vector<Leaf> la = leaves(a);
  const std::vector<Leaf> lb = leaves(b);
  std::string out;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (la[i].bytes != lb[i].bytes) {
      out += la[i].path + ": " + la[i].text + " != " + lb[i].text + "\n";
    }
  }
  return out;
}

}  // namespace hydra::util
