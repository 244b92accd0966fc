// The simulator side of an SPMD program (DESIGN.md §5).
//
// Every distributed app here runs one rank per placed processor, written
// as event handlers on one discrete-event engine: a rank charges its
// compute, S_i * complexity * A_i, to its own host and exchanges data over
// MMPS.  SpmdSim owns what those programs share -- the engine, NetSim and
// MMPS triple (plus an optional fault plan), each rank's flop time,
// rank-addressed messaging, the two scheduling steps ("reserve ms on my
// host from now" and "continue once my sends are initiated"), the finish
// time, and the run loop.  The kit only reserves and schedules: each app
// computes its own ms and keeps its own payloads, data layouts and
// reduction orders, so every simulated nanosecond is the app's.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mmps/system.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

class SpmdSim {
 public:
  /// One rank per entry of `placement` (kept by reference: it must
  /// outlive the kit), in placement order.  `faults` (optional) is armed
  /// when run() starts, with this run sitting at `fault_origin` on the
  /// plan's clock.
  SpmdSim(const Network& network, const Placement& placement,
          const sim::NetSimParams& params, Rng rng,
          const sim::FaultPlan* faults = nullptr,
          SimTime fault_origin = SimTime::zero());

  SpmdSim(const SpmdSim&) = delete;
  SpmdSim& operator=(const SpmdSim&) = delete;

  int size() const { return static_cast<int>(placement_.size()); }
  sim::Engine& engine() { return engine_; }

  /// Time of one flop on `rank`'s processor, in ms.
  double flop_ms(int rank) const {
    return flop_ms_[static_cast<std::size_t>(rank)];
  }

  /// MMPS send and receive, addressed by rank.
  void send(int from, int to, std::int32_t tag,
            std::vector<std::byte> payload);
  void recv(int at, int from, std::int32_t tag, mmps::RecvHandler handler);

  /// Reserve `ms` of compute on `rank`'s host from now; returns the time
  /// the reservation ends.
  SimTime charge(int rank, double ms);

  /// Run `next` once `rank`'s host has initiated the sends issued so far
  /// (now, when they already are).
  void after_sends(int rank, sim::Engine::Action next);

  /// A rank has run its last step: the run's elapsed time is the latest
  /// time this is called.
  void finish();

  struct Outcome {
    SimTime elapsed;
    std::uint64_t messages = 0;
  };

  /// Arm the fault plan, start every rank at t = 0 (`start(r)` in rank
  /// order), run until idle, and assert every message was claimed.
  Outcome run(const std::function<void(int)>& start);

 private:
  ProcessorRef host_of(int rank) const {
    return placement_[static_cast<std::size_t>(rank)];
  }

  const Placement& placement_;
  sim::Engine engine_;
  sim::NetSim net_;
  mmps::System mmps_;
  std::optional<sim::FaultInjector> injector_;
  std::vector<double> flop_ms_;
  SimTime finish_;
};

/// Ghost bookkeeping of a 1-D halo exchange: each iteration a rank waits
/// on one border from each chain neighbour, and its continuation is parked
/// until the last one lands.  Posting, sending and where a border lands
/// stay with the app.
class Halo1D {
 public:
  Halo1D(int rank, int size)
      : expected_((rank > 0 ? 1 : 0) + (rank + 1 < size ? 1 : 0)) {}

  /// Count one arrived border; on the last, run the parked continuation.
  void arrived();
  /// Run `next` now when every border is in, else park it for arrived().
  void when_complete(std::function<void()> next);
  /// Begin counting the next iteration's borders.
  void reset() { arrived_ = 0; }

 private:
  int expected_;
  int arrived_ = 0;
  std::function<void()> parked_;
};

}  // namespace netpart::apps
