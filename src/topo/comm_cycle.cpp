#include "topo/comm_cycle.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netpart {

namespace {
/// Per-cycle bookkeeping the delivery callbacks write.  It lives on the
/// runner's stack, so each callback captures a pointer to it and its
/// message index -- 16 trivially copyable bytes that std::function stores
/// inline -- and delivering a message allocates nothing.  The runner
/// drains the engine before the state goes out of scope.
struct CycleState {
  const sim::Engine* engine = nullptr;
  /// Completion time of each directed message of the cycle.
  std::vector<SimTime> delivered_at;
  std::size_t remaining = 0;
};
}  // namespace

CycleResult run_comm_cycles(sim::NetSim& net, const Placement& placement,
                            Topology topology, std::int64_t bytes,
                            int cycles) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  NP_REQUIRE(cycles >= 1, "need at least one cycle");
  NP_REQUIRE(net.engine().idle(), "engine must be idle at cycle start");
  // Check what send() would reject before the first send: a send that
  // threw mid-cycle would leave the earlier messages' callbacks pointing
  // into this frame.
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  for (const ProcessorRef& ref : placement) net.host(ref);

  const int p = static_cast<int>(placement.size());
  const auto messages = cycle_messages(topology, p);

  CycleResult avg;
  avg.per_rank.assign(placement.size(), SimTime::zero());
  avg.elapsed_max = SimTime::zero();
  avg.elapsed_mean = SimTime::zero();

  CycleState state;
  state.engine = &net.engine();
  std::vector<SimTime> rank_done;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const bool started_at_rest = net.at_rest();
    const SimTime t0 = net.engine().now();
    state.delivered_at.assign(messages.size(), SimTime::zero());
    state.remaining = messages.size();

    for (std::size_t m = 0; m < messages.size(); ++m) {
      const auto [from, to] = messages[m];
      net.send(placement[static_cast<std::size_t>(from)],
               placement[static_cast<std::size_t>(to)], bytes,
               [s = &state, m] {
                 s->delivered_at[m] = s->engine->now();
                 NP_ASSERT(s->remaining > 0);
                 --s->remaining;
               });
    }
    net.engine().run();
    NP_ASSERT(state.remaining == 0);

    // A rank's communication completes when its last outgoing message has
    // been delivered and its last incoming message has been processed.
    rank_done.assign(placement.size(), t0);
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const auto [from, to] = messages[m];
      auto& f = rank_done[static_cast<std::size_t>(from)];
      auto& t = rank_done[static_cast<std::size_t>(to)];
      f = std::max(f, state.delivered_at[m]);
      t = std::max(t, state.delivered_at[m]);
    }

    SimTime cycle_max = SimTime::zero();
    SimTime cycle_sum = SimTime::zero();
    for (std::size_t r = 0; r < placement.size(); ++r) {
      const SimTime elapsed = rank_done[r] - t0;
      avg.per_rank[r] += elapsed;
      cycle_max = std::max(cycle_max, elapsed);
      cycle_sum += elapsed;
    }
    const SimTime cycle_mean = SimTime::nanos(
        cycle_sum.as_nanos() / static_cast<std::int64_t>(placement.size()));
    avg.elapsed_max += cycle_max;
    avg.elapsed_mean += cycle_mean;

    // A cycle that started and ended at rest is what every later cycle
    // replays, shifted in time (NetSim::at_rest), so the rest of the run
    // adds up without simulating it.
    const int left = cycles - 1 - cycle;
    if (left > 0 && started_at_rest && net.at_rest()) {
      for (std::size_t r = 0; r < placement.size(); ++r) {
        avg.per_rank[r] += (rank_done[r] - t0) * left;
      }
      avg.elapsed_max += cycle_max * left;
      avg.elapsed_mean += cycle_mean * left;
      break;
    }
  }

  const auto div = [cycles](SimTime t) {
    return SimTime::nanos(t.as_nanos() / cycles);
  };
  for (SimTime& t : avg.per_rank) t = div(t);
  avg.elapsed_max = div(avg.elapsed_max);
  avg.elapsed_mean = div(avg.elapsed_mean);
  return avg;
}

}  // namespace netpart
