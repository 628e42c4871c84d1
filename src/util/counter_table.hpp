// Counter tables: one constexpr table lists each u64 counter of a stats
// struct once, as (wire name, member), and drives the atomic storage
// (CounterBlock), the snapshot read order (table order) and every encoder
// or dump. Callers name the memory order at each bump, where shmd-lint R7
// checks it. Adding a counter is one struct member plus one table row.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace shmd::util {

template <class SnapshotT>
struct CounterRow {
  using Snapshot = SnapshotT;
  std::string_view name;
  std::uint64_t Snapshot::*member;
};

/// One atomic per row of `kTable` (a namespace-scope constexpr
/// std::array of CounterRow), contiguous.
template <const auto& kTable>
class CounterBlock {
 public:
  using Snapshot = typename std::remove_cvref_t<decltype(kTable)>::value_type::Snapshot;

  /// The atomic behind `Member`; a member the table lacks does not compile.
  template <std::uint64_t Snapshot::*Member>
  [[nodiscard]] std::atomic<std::uint64_t>& at() noexcept {
    return cells_[index_of(Member)];
  }

  /// Loads every row in table order, each with acquire: a row read after
  /// one whose bump was a release sees everything before that bump.
  void load_into(Snapshot& snap) const noexcept {
    for (std::size_t i = 0; i < kTable.size(); ++i) {
      snap.*kTable[i].member = cells_[i].load(std::memory_order_acquire);
    }
  }

 private:
  static consteval std::size_t index_of(std::uint64_t Snapshot::*member) {
    std::size_t i = 0;
    while (kTable[i].member != member) ++i;  // past the end: not a constant expression
    return i;
  }
  static consteval bool rows_valid() {
    for (std::size_t i = 0; i < kTable.size(); ++i) {
      if (kTable[i].name.empty() || kTable[i].name.size() > 255) return false;
      for (std::size_t j = 0; j < i; ++j) {
        if (kTable[i].member == kTable[j].member || kTable[i].name == kTable[j].name) return false;
      }
    }
    return true;
  }
  static_assert(rows_valid(), "each member and each 1-255 byte name appears in one row");

  std::array<std::atomic<std::uint64_t>, kTable.size()> cells_{};
};

}  // namespace shmd::util
