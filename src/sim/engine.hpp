// Discrete-event simulation engine.
//
// A minimal, deterministic event loop: events fire in (time, insertion
// sequence) order, so two runs with the same seed produce identical
// schedules.  The engine is the substrate for the network simulator and the
// SPMD executor; it is strictly single-threaded by design (the measurement
// instrument must be reproducible).
//
// Storage: the heap orders 24-byte (time, seq, slot) keys, and each action
// lives in a slot table the key points into, so a sift never moves a
// std::function.  Freed slots are reused, so once the table has grown to
// the peak number of pending events, scheduling allocates nothing beyond
// what the action itself needs (nothing for a capture of up to 16
// trivially copyable bytes, which std::function stores inline).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace netpart::sim {

class Engine {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule `action` to run at absolute time `at` (>= now).
  void schedule_at(SimTime at, Action action);

  /// Schedule `action` to run `delay` from now (delay >= 0).
  void schedule_after(SimTime delay, Action action);

  /// Run events until the queue drains.  Returns the time of the last
  /// event executed (== now()).
  SimTime run();

  /// Run events with time <= limit; later events stay queued.
  /// Returns now(), which is min(limit, last event time).
  SimTime run_until(SimTime limit);

  /// Execute a single event if one is pending.  Returns false when idle.
  bool step();

  bool idle() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// Total events executed since construction or the last reset() (used
  /// by overhead tests, and to count the cycles a run simulated).
  std::uint64_t events_executed() const { return executed_; }

  /// Restore the state of a freshly built engine: nothing pending (queued
  /// actions are destroyed unrun), clock and insertion sequence at zero,
  /// no events executed.  The slot tables keep their capacity, so a reset
  /// engine schedules up to its earlier peak without allocating.
  void reset();

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into actions_
  };
  /// Heap order: the top is the earliest (time, seq).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Action> actions_;           ///< by slot; empty when free
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace netpart::sim
