#pragma once
// Canonical field encoding (DESIGN.md §10, §14). A struct whose contents
// reach a cache key or the wire declares its members once, next to the
// struct:
//
//   template <class S, class V>
//   static void fields(S& s, V&& v) { v("name", s.member); ... }
//
// S may be const, so one list serves readers (Emit) and writers (decoders,
// test mutators). Emit writes the members in list order into an SctbWriter
// (the wire) or a Hasher (a key); nested structs with a list, enums and
// pointers (a presence flag, then the pointee) encode by the same rules.

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "artifact/hash.hpp"

namespace sct::artifact {

/// Writes each visited member into `out`. Extra visitor arguments (the job
/// table's Need) are ignored; a member type with no rule here and no field
/// list of its own fails to compile.
template <class Sink>
struct Emit {
  Sink& out;
  template <class T, class... Extra>
  void operator()(const char*, const T& v, const Extra&...) {
    if constexpr (std::is_same_v<T, bool>) {
      out.u8(v ? 1 : 0);
    } else if constexpr (std::is_unsigned_v<T>) {
      out.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      out.f64(v);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      out.str(v);
    } else if constexpr (std::is_enum_v<T>) {
      out.u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_pointer_v<T>) {
      out.u8(v != nullptr ? 1 : 0);
      if (v != nullptr) (*this)("", *v);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      out.u64(v.size());
      for (const double x : v) out.f64(x);
    } else {
      T::fields(v, *this);
    }
  }
};

/// Digest of the values' canonical encoding, in order: a key is a tag, a
/// revision, then every input.
template <class... T>
[[nodiscard]] Digest digestOf(const T&... values) {
  Hasher hasher;
  Emit<Hasher> emit{hasher};
  (emit("", values), ...);
  return hasher.digest();
}

}  // namespace sct::artifact
