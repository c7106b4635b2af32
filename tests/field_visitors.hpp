#pragma once
// Test visitors over declared field lists (artifact/fields.hpp): Mutate
// changes visited members to drive the key-splitting properties, and
// tilesLayout checks that a field list names every member of its struct —
// the one omission a mutation test cannot see.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "artifact/fields.hpp"

namespace sct::testing_support {

/// Changes every member it visits (or, with `only` set, just that mutation
/// point) to a value different from the one it holds. Nested structs with a
/// visitor contribute one point per leaf member; a list or map is one point
/// (it gains an entry).
struct Mutate {
  static constexpr int kAll = -1;
  static constexpr int kNone = -2;  ///< only counts the mutation points
  int only = kAll;
  int index = 0;
  [[nodiscard]] bool hit() {
    const int point = index++;
    return only == kAll || point == only;
  }
  template <class T, class... Extra>
  void operator()(const char*, T& v, const Extra&...) {
    if constexpr (std::is_same_v<T, bool>) {
      if (hit()) v = !v;
    } else if constexpr (std::is_unsigned_v<T>) {
      if (hit()) v += 3;
    } else if constexpr (std::is_same_v<T, double>) {
      if (hit()) v += 1.25;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (hit()) v += "~";
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      if (hit()) v = static_cast<T>(static_cast<U>(v) ^ U{1});
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      if (hit()) v.push_back(2.41);
    } else if constexpr (artifact::kIsVector<T>) {
      if (hit()) v.emplace_back();
    } else if constexpr (artifact::kIsStringMap<T>) {
      if (hit()) v.try_emplace("~" + std::to_string(v.size()));
    } else {
      T::fields(v, *this);
    }
  }
};

/// Number of mutation points `visit(value, visitor)` offers.
template <class T, class Visit>
int mutationPoints(Visit&& visit) {
  T value{};
  Mutate count{Mutate::kNone};
  visit(value, count);
  return count.index;
}

/// Records the offset, size and alignment of each visited member.
struct LayoutRecorder {
  struct Member {
    const char* name;
    std::size_t offset;
    std::size_t size;
    std::size_t align;
  };
  const std::byte* base;
  std::vector<Member> members;
  template <class T, class... Extra>
  void operator()(const char* name, const T& member, const Extra&...) {
    const auto* at = reinterpret_cast<const std::byte*>(&member);
    members.push_back({name, static_cast<std::size_t>(at - base), sizeof(T),
                       alignof(T)});
  }
};

/// Succeeds when the members `visit(s, recorder)` names tile S up to
/// padding: no two overlap, every gap before a member is smaller than that
/// member's alignment, and the tail gap is smaller than S's alignment. A
/// member left out of the list leaves a gap at least its own size.
template <class S, class Visit>
::testing::AssertionResult tilesLayout(Visit&& visit) {
  const S s{};
  LayoutRecorder layout{reinterpret_cast<const std::byte*>(&s), {}};
  visit(s, layout);
  std::sort(layout.members.begin(), layout.members.end(),
            [](const auto& a, const auto& b) { return a.offset < b.offset; });
  std::size_t end = 0;
  for (const LayoutRecorder::Member& m : layout.members) {
    if (m.offset < end) {
      return ::testing::AssertionFailure() << "member " << m.name
                                           << " overlaps its predecessor";
    }
    if (m.offset - end >= m.align) {
      return ::testing::AssertionFailure()
             << (m.offset - end) << " unvisited bytes before " << m.name;
    }
    end = m.offset + m.size;
  }
  if (sizeof(S) - end >= alignof(S)) {
    return ::testing::AssertionFailure()
           << (sizeof(S) - end) << " unvisited bytes after the last member";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace sct::testing_support
