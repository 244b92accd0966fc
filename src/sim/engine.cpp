#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace netpart::sim {

std::uint32_t Engine::free_slot() {
  NP_REQUIRE(next_seq_ <= (~std::uint64_t{0} >> kSlotBits),
             "event sequence exhausted");
  if (free_slots_.empty()) {
    if (actions_.size() == actions_.capacity()) {
      // The three tables grow together: every slot can be pending or free
      // at once, so neither the heap nor the free list grows on its own
      // and step() never allocates.
      const std::size_t capacity =
          std::max<std::size_t>(64, 2 * actions_.capacity());
      NP_REQUIRE(capacity <= kSlotMask + 1, "too many pending events");
      actions_.reserve(capacity);
      heap_.resize(capacity);
      free_slots_.reserve(capacity);
    }
    free_slots_.push_back(static_cast<std::uint32_t>(actions_.size()));
    actions_.emplace_back();
  }
  return free_slots_.back();
}

void Engine::push(Key key) {
  // Sift a hole up from the new leaf, then fill it once.
  std::size_t i = pending_++;
  Key* const heap = heap_.data();
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(key, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = key;
}

Engine::Key Engine::pop() {
  Key* const heap = heap_.data();
  const Key top = heap[0];
  const std::size_t n = --pending_;
  const Key last = heap[n];
  // Sift a hole down from the root along the earlier child until `last`
  // fits, then fill it once.  The earlier child is picked by arithmetic,
  // not a branch the data would mispredict: the last parent's second
  // child may be heap[n], the place `last` just left, which still holds
  // `last` and so never moves the hole.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 2 * i + 1;
    if (first >= n) break;
    const std::size_t child =
        first + static_cast<std::size_t>(earlier(heap[first + 1], heap[first]));
    if (!earlier(heap[child], last)) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = last;
  return top;
}

void Engine::reset() {
  // Drop the pending actions unrun and free their slots.  A free slot's
  // action is already empty, and which slot an event takes never shows:
  // slots order no events, because sequences are unique.
  for (std::size_t i = 0; i < pending_; ++i) {
    const auto slot = static_cast<std::uint32_t>(heap_[i].order & kSlotMask);
    actions_[slot] = Action();
    free_slots_.push_back(slot);
  }
  pending_ = 0;
  now_ = SimTime::zero();
  next_seq_ = 0;
  executed_ = 0;
}

SimTime Engine::run() {
  while (step()) {
  }
  return now_;
}

SimTime Engine::run_until(SimTime limit) {
  while (pending_ > 0 && heap_[0].at <= limit) {
    step();
  }
  if (now_ < limit && pending_ == 0) {
    // Idle until the limit: time advances even with nothing to do, so
    // run_until composes with timeout-style callers.
    now_ = limit;
  }
  return now_;
}

bool Engine::step() {
  if (pending_ == 0) return false;
  const Key top = pop();
  const auto slot = static_cast<std::uint32_t>(top.order & kSlotMask);
  // Move the action out and free its slot before running it: the action
  // may schedule, which can reuse the slot or grow the table.
  Action action = std::move(actions_[slot]);
  free_slots_.push_back(slot);
  NP_ASSERT(top.at >= now_);
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

}  // namespace netpart::sim
