#include "topo/comm_cycle.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netpart {

CommCycle::CommCycle(Topology topology, int p)
    : p_(p), messages_(cycle_messages(topology, p)) {
  NP_REQUIRE(p >= 1, "a cycle needs at least one rank");
}

const CycleResult& CommCycle::run(sim::NetSim& net,
                                  const Placement& placement,
                                  std::int64_t bytes, int cycles) {
  NP_REQUIRE(static_cast<int>(placement.size()) == p_,
             "placement must hold one processor per rank of the cycle");
  NP_REQUIRE(cycles >= 1, "need at least one cycle");
  NP_REQUIRE(net.engine().idle(), "engine must be idle at cycle start");
  // Check what send() would reject before the first send: a send that
  // threw mid-cycle would leave the earlier messages' callbacks pointing
  // into this object.
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  for (const ProcessorRef& ref : placement) net.host(ref);

  CycleResult& avg = result_;
  avg.per_rank.assign(placement.size(), SimTime::zero());
  avg.elapsed_max = SimTime::zero();
  avg.elapsed_mean = SimTime::zero();

  engine_ = &net.engine();
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const bool started_at_rest = net.at_rest();
    const SimTime t0 = net.engine().now();
    delivered_at_.assign(messages_.size(), SimTime::zero());
    remaining_ = messages_.size();

    for (std::size_t m = 0; m < messages_.size(); ++m) {
      const auto [from, to] = messages_[m];
      net.send(placement[static_cast<std::size_t>(from)],
               placement[static_cast<std::size_t>(to)], bytes, [this, m] {
                 delivered_at_[m] = engine_->now();
                 NP_ASSERT(remaining_ > 0);
                 --remaining_;
               });
    }
    net.engine().run();
    NP_ASSERT(remaining_ == 0);

    // A rank's communication completes when its last outgoing message has
    // been delivered and its last incoming message has been processed.
    rank_done_.assign(placement.size(), t0);
    for (std::size_t m = 0; m < messages_.size(); ++m) {
      const auto [from, to] = messages_[m];
      auto& f = rank_done_[static_cast<std::size_t>(from)];
      auto& t = rank_done_[static_cast<std::size_t>(to)];
      f = std::max(f, delivered_at_[m]);
      t = std::max(t, delivered_at_[m]);
    }

    SimTime cycle_max = SimTime::zero();
    SimTime cycle_sum = SimTime::zero();
    for (std::size_t r = 0; r < placement.size(); ++r) {
      const SimTime elapsed = rank_done_[r] - t0;
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
        avg.per_rank[r] += (rank_done_[r] - t0) * left;
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

CycleResult run_comm_cycles(sim::NetSim& net, const Placement& placement,
                            Topology topology, std::int64_t bytes,
                            int cycles) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  return CommCycle(topology, static_cast<int>(placement.size()))
      .run(net, placement, bytes, cycles);
}

}  // namespace netpart
