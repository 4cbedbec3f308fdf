#pragma once
// Fixed-slot pool allocator for the serving hot path.
//
// SlotPool<T> owns slabs of default-constructed T and hands out slot
// indices from a free list. allocate() pops a recycled slot when one
// exists — the steady-state case, where it touches no allocator at all —
// and only grows (geometrically, slab-at-a-time) when the pool is
// exhausted. deallocate() never releases memory; a slot's T keeps
// whatever capacity it accumulated (e.g. a token vector's buffer) so the
// next tenant reuses it instead of re-growing. That retention is the
// ownership contract (DESIGN.md §11): capacity belongs to the SLOT, not
// the logical object living in it, and is bounded by the pool's
// high-water slot count times the largest payload a slot ever held.
//
// Indices are stable for the lifetime of the pool (slabs are never moved
// or freed), so callers may hold raw slot indices across allocations.
// Not thread-safe; callers serialize access (a RadixTree belongs to one
// PrefixCache, which one thread owns at a time).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace llmq::util {

template <typename T>
class SlotPool {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kInvalid = UINT32_MAX;

  explicit SlotPool(std::size_t slab_slots = 256)
      : slab_slots_(slab_slots < 1 ? 1 : slab_slots) {}

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  SlotPool(SlotPool&&) = default;
  SlotPool& operator=(SlotPool&&) = default;

  /// Pop a recycled slot, or carve a fresh one (growing a slab if needed).
  Slot allocate() {
    if (!free_.empty()) {
      const Slot s = free_.back();
      free_.pop_back();
      ++in_use_;
      return s;
    }
    if (next_ == capacity_) grow();
    const Slot s = next_++;
    ++in_use_;
    return s;
  }

  /// Return a slot to the free list. The T keeps its state/capacity; the
  /// next allocate() of this slot reuses it.
  void deallocate(Slot s) {
    free_.push_back(s);
    --in_use_;
  }

  T& operator[](Slot s) { return slabs_[s / slab_slots_][s % slab_slots_]; }
  const T& operator[](Slot s) const {
    return slabs_[s / slab_slots_][s % slab_slots_];
  }

  /// Slots ever carved (high-water mark). Flat across steady-state churn.
  std::size_t slots() const { return next_; }
  std::size_t in_use() const { return in_use_; }

 private:
  void grow() {
    // Geometric growth in slab count: double the number of slabs each
    // exhaustion (1, 1, 2, 4, ...) so n allocations cost O(n) total work.
    std::size_t add = slabs_.empty() ? 1 : slabs_.size();
    slabs_.reserve(slabs_.size() + add);
    for (std::size_t i = 0; i < add; ++i)
      slabs_.push_back(std::make_unique<T[]>(slab_slots_));
    capacity_ += add * slab_slots_;
  }

  std::size_t slab_slots_;
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<Slot> free_;
  std::size_t next_ = 0;      // first never-used slot index
  std::size_t capacity_ = 0;  // total slots across slabs
  std::size_t in_use_ = 0;
};

}  // namespace llmq::util
