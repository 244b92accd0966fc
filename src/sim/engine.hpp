// Discrete-event simulation engine.
//
// A minimal, deterministic event loop: events fire in (time, insertion
// sequence) order, so two runs with the same seed produce identical
// schedules.  The engine is the substrate for the network simulator and the
// SPMD executor; it is strictly single-threaded by design (the measurement
// instrument must be reproducible).
//
// Storage: a binary heap orders 16-byte keys -- the time, and the insertion
// sequence packed above the index of the slot that holds the action -- so
// a sift moves two words per level and never an action.  A sift moves a
// hole and writes each key it passes once, and picks the earlier child by
// arithmetic, not a branch.
// (On calibration's event trace this beat a 4-ary heap and
// std::push_heap/pop_heap: EXPERIMENTS.md EXT24.)  Each action is built in
// a slot of a table the keys point into; freed slots are reused, and the
// heap, the slot table and the free list grow together, so once the table
// has grown to the peak number of pending events, scheduling allocates
// nothing beyond what the action itself needs: nothing for a capture of up
// to 16 trivially copyable bytes, which Action stores inline.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/time.hpp"

namespace netpart::sim {

/// A one-shot callable: an engine event's action, or a message's delivery
/// callback.  A callable of up to 16 trivially copyable bytes is stored
/// inline -- the rule libstdc++'s std::function applies too, and what
/// every NetSim and CommCycle event captures, (this, index) -- and
/// anything else is moved to the heap.  Either way the 32 bytes of an
/// Action relocate by copying, so making, moving and destroying an inline
/// one is plain stores, with no manager call.
class Action {
 public:
  Action() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Action> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Action(F&& f) {  // NOLINT(google-explicit-constructor): like std::function
    build(std::forward<F>(f));
  }

  /// Replace the callable with `f`, built in place: the captures are
  /// stored straight into this object, never staged in a temporary.  If
  /// building throws, the Action is left empty.
  template <typename F>
  void assign(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, Action>) {
      static_assert(!std::is_lvalue_reference_v<F>, "move the Action in");
      *this = std::move(f);
    } else {
      release();
      build(std::forward<F>(f));
    }
  }

  Action(Action&& other) noexcept { take(other); }
  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;
  ~Action() { release(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Run the callable (non-empty).
  void operator()() { invoke_(storage_); }

 private:
  template <typename F>
  void build(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  sizeof(Fn) <= sizeof(storage_) &&
                  alignof(Fn) <= alignof(void*)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); };
    } else {
      Fn* const fn = new Fn(std::forward<F>(f));
      ::new (static_cast<void*>(storage_)) Fn*(fn);
      invoke_ = [](void* s) { (**std::launder(static_cast<Fn**>(s)))(); };
      destroy_ = [](void* s) { delete *std::launder(static_cast<Fn**>(s)); };
    }
  }
  void take(Action& other) {
    std::memcpy(storage_, other.storage_, sizeof(storage_));
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }
  void release() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  alignas(void*) unsigned char storage_[16] = {};
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;  ///< null for an inline callable
};

class Engine {
 public:
  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `action` to run at absolute time `at` (>= now).  The action
  /// is built in its slot.
  template <typename F>
  void schedule_at(SimTime at, F&& action) {
    NP_REQUIRE(at >= now_, "cannot schedule events in the past");
    const std::uint32_t slot = free_slot();
    // The slot stays on the free list until the action is in it, so a
    // throw here leaves the tables as they were.
    actions_[slot].assign(std::forward<F>(action));
    NP_REQUIRE(static_cast<bool>(actions_[slot]),
               "event action must be callable");
    free_slots_.pop_back();
    push(Key{at, next_seq_++ << kSlotBits | slot});
  }

  /// Schedule `action` to run `delay` from now (delay >= 0).
  template <typename F>
  void schedule_after(SimTime delay, F&& action) {
    NP_REQUIRE(delay >= SimTime::zero(), "delay must be non-negative");
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Run events until the queue drains.  Returns the time of the last
  /// event executed (== now()).
  SimTime run();

  /// Run events with time <= limit; later events stay queued.
  /// Returns now(), which is min(limit, last event time).
  SimTime run_until(SimTime limit);

  /// Execute a single event if one is pending.  Returns false when idle.
  bool step();

  bool idle() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  /// Total events executed since construction or the last reset() (used
  /// by overhead tests, and to count the cycles a run simulated).
  std::uint64_t events_executed() const { return executed_; }

  /// Restore the state of a freshly built engine: nothing pending (queued
  /// actions are destroyed unrun), clock and insertion sequence at zero,
  /// no events executed.  The slot tables keep their slots, all free, so
  /// a reset engine schedules up to its earlier peak without allocating,
  /// and a reset costs the pending events, not the table.
  void reset();

 private:
  /// The low bits of Key::order hold the slot, the high bits the
  /// insertion sequence: 2^24 pending events, 2^40 events per run.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Key {
    SimTime at;
    std::uint64_t order;  ///< sequence << kSlotBits | slot
  };
  /// Event order: time, then insertion sequence.  Sequences are unique,
  /// so comparing the packed order compares them.  Times are >= 0, so one
  /// unsigned 128-bit comparison orders (time, order) without a branch.
  static bool earlier(Key a, Key b) {
    using U128 = unsigned __int128;
    const auto wide = [](Key k) {
      return U128{static_cast<std::uint64_t>(k.at.as_nanos())} << 64 |
             k.order;
    };
    return wide(a) < wide(b);
  }

  /// The free slot the next action takes (the back of the free list),
  /// growing the tables when none is free.
  std::uint32_t free_slot();
  void push(Key key);
  /// Remove and return the earliest key (the heap is non-empty).
  Key pop();

  std::vector<Key> heap_;  ///< [0, pending_) the heap; sized to the table
  std::size_t pending_ = 0;
  std::vector<Action> actions_;           ///< by slot; empty when free
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace netpart::sim
