// Fixed-capacity hash index from 64-bit keys to small values.
//
// The partition service keeps two key-indexed tables on its request path:
// each decision-cache shard's key -> ring-position index, and the table of
// jobs in flight.  Both know their largest size at construction, so neither
// needs a node-based map that allocates on every insert and frees on every
// erase, inside the lock that guards it.  This index allocates its slot
// array once, in the constructor, and never again.
//
// Open addressing with linear probing at a load of at most 1/2, so a probe
// for an absent key ends within a few slots.  A key's home slot is the high
// bits of a multiplicative (Fibonacci) hash: the decision cache picks a
// key's shard from the low bits of a fold of the key, and a home slot taken
// from those bits would crowd each shard's keys into a fraction of its
// slots.  Erase shifts the later members of the probe run back over the
// hole (backward-shift deletion), so there are no tombstones and probe runs
// do not lengthen under churn.
//
// Keys are FNV-1a hashes and take every 64-bit value, 0 included, so no key
// can mark a free slot: each slot carries its own `used` flag.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace netpart {

template <typename Value>
class FlatIndex {
 public:
  /// Room for `max_entries` keys; inserting one more fails.
  explicit FlatIndex(std::size_t max_entries)
      : slots_(slots_for(max_entries)),
        shift_(64 - std::countr_zero(slots_.size())),
        max_entries_(max_entries) {}

  /// The value stored under `key`, or nullptr.
  Value* find(std::uint64_t key) {
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<FlatIndex*>(this)->find(key);
  }

  /// Store `value` under `key`, which must be absent.  Throws
  /// InvalidArgument when the index already holds `max_entries` keys.
  void insert(std::uint64_t key, Value value) {
    NP_REQUIRE(size_ < max_entries_, "flat index is full");
    std::size_t i = home(key);
    for (; slots_[i].used; i = next(i)) NP_ASSERT(slots_[i].key != key);
    slots_[i] = Slot{key, std::move(value), true};
    ++size_;
  }

  /// Remove `key` and return its value; nullopt when it is absent.
  std::optional<Value> extract(std::uint64_t key) {
    std::size_t hole = home(key);
    for (;; hole = next(hole)) {
      if (!slots_[hole].used) return std::nullopt;
      if (slots_[hole].key == key) break;
    }
    std::optional<Value> value(std::move(slots_[hole].value));
    // A later member of the run moves into the hole when the hole lies on
    // its probe path: between its home slot and where it sits now.
    for (std::size_t i = next(hole); slots_[i].used; i = next(i)) {
      const std::size_t mask = slots_.size() - 1;
      if (((i - home(slots_[i].key)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return value;
  }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t slot_count() const { return slots_.size(); }

  /// The slot a probe for `key` starts at.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
    bool used = false;
  };

  static std::size_t slots_for(std::size_t max_entries) {
    NP_REQUIRE(max_entries <= (std::size_t{1} << 31),
               "flat index bound too large");
    return std::bit_ceil(std::max<std::size_t>(2 * max_entries, 2));
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  int shift_;
  std::size_t max_entries_;
  std::size_t size_ = 0;
};

}  // namespace netpart
