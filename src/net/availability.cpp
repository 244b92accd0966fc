#include "net/availability.hpp"

#include <algorithm>

#include "analysis/race/annotations.hpp"
#include "util/error.hpp"

namespace netpart {

int ClusterManager::available(const Network& net) const {
  return static_cast<int>(available_indices(net).size());
}

std::vector<ProcessorIndex> ClusterManager::available_indices(
    const Network& net) const {
  const Cluster& c = net.cluster(cluster_);
  std::vector<ProcessorIndex> out;
  out.reserve(static_cast<std::size_t>(c.size()));
  for (ProcessorIndex i = 0; i < c.size(); ++i) {
    if (c.processor(i).load < policy_.load_threshold) {
      out.push_back(i);
    }
  }
  return out;
}

int AvailabilitySnapshot::total() const {
  int t = 0;
  for (int n : available) t += n;
  return t;
}

AvailabilitySnapshot gather_availability(
    const Network& net, const std::vector<ClusterManager>& managers) {
  NP_REQUIRE(static_cast<int>(managers.size()) == net.num_clusters(),
             "need exactly one manager per cluster");
  AvailabilitySnapshot snap;
  snap.available.assign(static_cast<std::size_t>(net.num_clusters()), 0);
  for (const ClusterManager& m : managers) {
    snap.available[static_cast<std::size_t>(m.cluster())] =
        m.available(net);
  }
  return snap;
}

std::vector<ClusterManager> make_managers(const Network& net,
                                          AvailabilityPolicy policy) {
  std::vector<ClusterManager> managers;
  managers.reserve(static_cast<std::size_t>(net.num_clusters()));
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    managers.emplace_back(c, policy);
  }
  return managers;
}

namespace {

/// Final revoked/restored state per processor after replaying events with
/// at <= upto in time order (stable for equal times: later entry wins).
std::vector<std::pair<ProcessorRef, bool>> final_churn_state(
    const std::vector<ChurnEvent>& events, SimTime upto) {
  std::vector<ChurnEvent> applicable;
  for (const ChurnEvent& e : events) {
    if (e.at <= upto) applicable.push_back(e);
  }
  std::stable_sort(applicable.begin(), applicable.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });
  std::vector<std::pair<ProcessorRef, bool>> state;
  for (const ChurnEvent& e : applicable) {
    const bool revoked = e.kind == ChurnEvent::Kind::Revoke;
    auto it = std::find_if(state.begin(), state.end(),
                           [&](const auto& s) { return s.first == e.ref; });
    if (it == state.end()) {
      state.emplace_back(e.ref, revoked);
    } else {
      it->second = revoked;
    }
  }
  return state;
}

}  // namespace

void apply_churn_to_network(Network& net,
                            const std::vector<ChurnEvent>& events,
                            SimTime upto) {
  for (const auto& [ref, revoked] : final_churn_state(events, upto)) {
    NP_REQUIRE(ref.cluster >= 0 && ref.cluster < net.num_clusters(),
               "churn event names an unknown cluster");
    Cluster& c = net.cluster(ref.cluster);
    NP_REQUIRE(ref.index >= 0 && ref.index < c.size(),
               "churn event names an unknown processor");
    c.processor(ref.index).load = revoked ? 1.0 : 0.0;
  }
}

AvailabilitySnapshot apply_churn(const Network& net,
                                 AvailabilitySnapshot snapshot,
                                 const std::vector<ChurnEvent>& events,
                                 SimTime upto) {
  NP_REQUIRE(static_cast<int>(snapshot.available.size()) ==
                 net.num_clusters(),
             "snapshot does not match the network");
  for (const auto& [ref, revoked] : final_churn_state(events, upto)) {
    if (!revoked) continue;
    NP_REQUIRE(ref.cluster >= 0 && ref.cluster < net.num_clusters(),
               "churn event names an unknown cluster");
    int& n = snapshot.available[static_cast<std::size_t>(ref.cluster)];
    n = std::max(0, n - 1);
  }
  return snapshot;
}

AvailabilityFeed::AvailabilityFeed(AvailabilitySnapshot initial)
    : current_(std::move(initial)) {}

AvailabilityFeed::AvailabilityFeed(
    const Network& net, const std::vector<ClusterManager>& managers)
    : AvailabilityFeed(gather_availability(net, managers)) {}

std::uint64_t AvailabilityFeed::epoch() const {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  NP_ATOMIC_ACQUIRE(&epoch_, "net.feed.epoch");
  return epoch;
}

std::pair<AvailabilitySnapshot, std::uint64_t> AvailabilityFeed::read()
    const {
  std::lock_guard lock(mutex_);
  return {current_, epoch_.load(std::memory_order_relaxed)};
}

std::uint64_t AvailabilityFeed::update(AvailabilitySnapshot next) {
  std::lock_guard lock(mutex_);
  std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (next.available != current_.available) {
    current_ = std::move(next);
    NP_ATOMIC_RELEASE(&epoch_, "net.feed.epoch");
    epoch_.store(++epoch, std::memory_order_release);
  }
  return epoch;
}

void apply_random_load(Network& net, Rng& rng, double mean_load) {
  NP_REQUIRE(mean_load >= 0.0, "mean load must be non-negative");
  for (ClusterId cid = 0; cid < net.num_clusters(); ++cid) {
    Cluster& c = net.cluster(cid);
    for (ProcessorIndex i = 0; i < c.size(); ++i) {
      const double load =
          mean_load == 0.0 ? 0.0 : rng.next_exponential(mean_load);
      c.processor(i).load = std::min(load, 1.0);
    }
  }
}

}  // namespace netpart
