#pragma once
// Canonical field encoding (DESIGN.md §10, §14). A struct whose contents
// reach a cache key, a stored record or the wire declares its members once,
// next to the struct:
//
//   template <class S, class V>
//   static void fields(S& s, V&& v) { v("name", s.member); ... }
//
// S may be const, so one list serves readers (Emit) and writers (Read, test
// mutators). Emit writes the members in list order into an SctbWriter (a
// record, the wire) or a Hasher (a key); Read is its exact mirror. Nested
// structs with a list, enums, pointers (a presence flag, then the pointee;
// Emit only), vectors and string-keyed maps (a count, then the entries)
// encode by the same rules.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/hash.hpp"

namespace sct::artifact {

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIsStringMap = false;
template <class T, class Less>
inline constexpr bool kIsStringMap<std::map<std::string, T, Less>> = true;

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
    } else if constexpr (kIsVector<T>) {
      out.u64(v.size());
      for (const auto& x : v) (*this)("", x);
    } else if constexpr (kIsStringMap<T>) {
      out.u64(v.size());
      for (const auto& [key, x] : v) {
        out.str(key);
        (*this)("", x);
      }
    } else {
      T::fields(v, *this);
    }
  }
};

/// Reads each visited member back in list order, validating as it goes:
/// unsigned members narrower than 64 bits and enums are range-checked (an
/// enum against the `lastEnumerator(E)` declared next to it), a list or map
/// count must fit the bytes left in the section before anything is
/// allocated, and map keys must arrive strictly ascending. Every violation
/// throws FormatError.
struct Read {
  SctbReader::Cursor& in;
  template <class T, class... Extra>
  void operator()(const char* name, T& v, const Extra&...) {
    if constexpr (std::is_same_v<T, bool>) {
      v = in.boolean();
    } else if constexpr (std::is_unsigned_v<T>) {
      v = static_cast<T>(bounded(name, std::numeric_limits<T>::max()));
    } else if constexpr (std::is_same_v<T, double>) {
      v = in.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in.str();
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(
          bounded(name, static_cast<std::uint64_t>(lastEnumerator(T{}))));
    } else if constexpr (kIsVector<T>) {
      v.assign(count(name), {});
      for (auto& x : v) (*this)("", x);
    } else if constexpr (kIsStringMap<T>) {
      v.clear();
      for (std::uint64_t i = count(name); i != 0; --i) {
        std::string key = in.str();
        if (!v.empty() && !(v.rbegin()->first < key)) {
          throw FormatError(std::string("map ") + name + " keys out of order");
        }
        (*this)("", v.try_emplace(v.end(), std::move(key))->second);
      }
    } else {
      T::fields(v, *this);
    }
  }

 private:
  std::uint64_t bounded(const char* name, std::uint64_t max) {
    const std::uint64_t raw = in.u64();
    if (raw > max) throw FormatError(std::string(name) + " out of range");
    return raw;
  }
  /// Every entry takes at least one byte, so a count above the bytes left
  /// is corrupt and is refused before anything is allocated.
  std::size_t count(const char* name) {
    return static_cast<std::size_t>(bounded(name, in.remaining()));
  }
};

/// A record: a struct with a field list and a `kSection` name, stored as
/// the whole of that section.
template <class T>
void encodeRecord(SctbWriter& writer, const T& record) {
  writer.beginSection(T::kSection);
  T::fields(record, Emit<SctbWriter>{writer});
}

template <class T>
[[nodiscard]] T decodeRecord(const SctbReader& reader) {
  SctbReader::Cursor cursor = reader.section(T::kSection);
  T record{};
  T::fields(record, Read{cursor});
  return record;
}

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
