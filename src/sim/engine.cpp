#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace netpart::sim {

void Engine::schedule_at(SimTime at, Action action) {
  NP_REQUIRE(at >= now_, "cannot schedule events in the past");
  NP_REQUIRE(action != nullptr, "event action must be callable");
  if (free_slots_.empty()) {
    if (actions_.size() == actions_.capacity()) {
      // The three tables grow together: every slot can be pending or free
      // at once, so neither the heap nor the free list grows on its own
      // and step() never allocates.
      const std::size_t capacity =
          std::max<std::size_t>(64, 2 * actions_.capacity());
      actions_.reserve(capacity);
      heap_.reserve(capacity);
      free_slots_.reserve(capacity);
    }
    free_slots_.push_back(static_cast<std::uint32_t>(actions_.size()));
    actions_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  actions_[slot] = std::move(action);
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::schedule_after(SimTime delay, Action action) {
  NP_REQUIRE(delay >= SimTime::zero(), "delay must be non-negative");
  schedule_at(now_ + delay, std::move(action));
}

void Engine::reset() {
  heap_.clear();
  actions_.clear();
  free_slots_.clear();
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
  while (!heap_.empty() && heap_.front().at <= limit) {
    step();
  }
  if (now_ < limit && heap_.empty()) {
    // Idle until the limit: time advances even with nothing to do, so
    // run_until composes with timeout-style callers.
    now_ = limit;
  }
  return now_;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the action out and free its slot before running it: the action
  // may schedule, which can reuse the slot or grow the table.
  Action action = std::move(actions_[top.slot]);
  free_slots_.push_back(top.slot);
  NP_ASSERT(top.at >= now_);
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

}  // namespace netpart::sim
