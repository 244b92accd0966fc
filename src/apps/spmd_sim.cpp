#include "apps/spmd_sim.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace netpart::apps {

SpmdSim::SpmdSim(const Network& network, const Placement& placement,
                 const sim::NetSimParams& params, Rng rng,
                 const sim::FaultPlan* faults, SimTime fault_origin)
    : placement_(placement),
      net_(engine_, network, params, rng),
      mmps_(net_) {
  if (faults != nullptr && !faults->empty()) {
    injector_.emplace(net_, *faults, fault_origin);
  }
  flop_ms_.reserve(placement.size());
  for (const ProcessorRef& ref : placement) {
    flop_ms_.push_back(
        network.cluster(ref.cluster).type().flop_time.as_millis());
  }
}

void SpmdSim::send(int from, int to, std::int32_t tag,
                   std::vector<std::byte> payload) {
  mmps_.send(host_of(from), host_of(to), tag, std::move(payload));
}

void SpmdSim::recv(int at, int from, std::int32_t tag,
                   mmps::RecvHandler handler) {
  mmps_.recv(host_of(at), host_of(from), tag, std::move(handler));
}

SimTime SpmdSim::charge(int rank, double ms) {
  return net_.host(host_of(rank))
      .reserve(engine_.now(), SimTime::millis(ms));
}

void SpmdSim::after_sends(int rank, sim::Action next) {
  const SimTime ready = net_.host(host_of(rank)).busy_until();
  engine_.schedule_at(std::max(ready, engine_.now()), std::move(next));
}

void SpmdSim::finish() { finish_ = std::max(finish_, engine_.now()); }

SpmdSim::Outcome SpmdSim::run(const std::function<void(int)>& start) {
  if (injector_.has_value()) {
    injector_->arm();
  }
  for (int r = 0; r < size(); ++r) {
    engine_.schedule_at(SimTime::zero(), [&start, r] { start(r); });
  }
  engine_.run();
  NP_ASSERT(mmps_.unclaimed() == 0);
  return Outcome{finish_, net_.messages_delivered()};
}

void Halo1D::arrived() {
  ++arrived_;
  if (parked_ && arrived_ == expected_) {
    std::function<void()> next = std::move(parked_);
    parked_ = nullptr;
    next();
  }
}

void Halo1D::when_complete(std::function<void()> next) {
  if (arrived_ < expected_) {
    parked_ = std::move(next);
    return;
  }
  next();
}

}  // namespace netpart::apps
