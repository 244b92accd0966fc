#include "obs/trace_context.hpp"

#include <vector>

#include "analysis/race/recorder.hpp"
#include "util/rng.hpp"

namespace netpart::obs {

namespace {

// npracer's recorder is a leaf library and cannot link obs; it learns the
// active span through this probe instead, so every recorded annotation
// event carries its (trace_id, span_id) and race reports can name both
// stacks' span context.  Registered at static-init: the probe target is a
// constant-initialized atomic in np_race, so order does not matter.
[[maybe_unused]] const bool kRaceProbeRegistered = [] {
  analysis::race::set_context_probe(
      [](std::uint64_t* trace_id, std::uint64_t* span_id) {
        const TraceContext ctx = current_context();
        *trace_id = ctx.trace_id;
        *span_id = ctx.span_id;
      });
  return true;
}();

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;  // SplitMix64 step

thread_local std::vector<TraceContext> t_context_stack;

}  // namespace

void TraceIdGenerator::reset(std::uint64_t seed, std::uint64_t stream) {
  // Avalanche the stream into the base so per-node streams of the same
  // seed land far apart, then let next() walk the Weyl sequence from it.
  base_ = splitmix64_finalize(seed ^
                              splitmix64_finalize(stream * kGamma + 1));
  sequence_.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceIdGenerator::next() {
  const std::uint64_t n =
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t id = splitmix64_finalize(base_ + n * kGamma);
  return id != 0 ? id : 1;  // 0 means "no id"; remap the (2^-64) collision
}

TraceContext current_context() {
  if (t_context_stack.empty()) return TraceContext{};
  return t_context_stack.back();
}

ContextScope::ContextScope(const TraceContext& ctx) {
  if (!ctx.valid()) return;
  t_context_stack.push_back(ctx);
  pushed_ = true;
}

ContextScope::~ContextScope() {
  if (pushed_) t_context_stack.pop_back();
}

namespace detail {

void push_context(const TraceContext& ctx) {
  t_context_stack.push_back(ctx);
}

void pop_context() { t_context_stack.pop_back(); }

}  // namespace detail

}  // namespace netpart::obs
