#include "calib/cost_model.hpp"

#include <cmath>

#include "util/error.hpp"

namespace netpart {

namespace {
constexpr std::size_t kNumTopologies = 5;

std::size_t topo_index(Topology t) {
  const auto i = static_cast<std::size_t>(t);
  NP_ASSERT(i < kNumTopologies);
  return i;
}
}  // namespace

CostModelDb::CostModelDb(int num_clusters) : num_clusters_(num_clusters) {
  NP_REQUIRE(num_clusters >= 1, "cost model needs at least one cluster");
  const auto n = static_cast<std::size_t>(num_clusters);
  comm_.resize(kNumTopologies * n);
  pairs_.resize(n * n);
}

std::size_t CostModelDb::topo_slot(ClusterId c, Topology t) const {
  NP_REQUIRE(c >= 0 && c < num_clusters_, "cluster id out of range");
  return topo_index(t) * static_cast<std::size_t>(num_clusters_) +
         static_cast<std::size_t>(c);
}

std::size_t CostModelDb::pair_slot(ClusterId a, ClusterId b) const {
  NP_REQUIRE(a >= 0 && a < num_clusters_ && b >= 0 && b < num_clusters_,
             "cluster id out of range");
  return static_cast<std::size_t>(a) * static_cast<std::size_t>(num_clusters_) +
         static_cast<std::size_t>(b);
}

const std::optional<Eq1Fit>* CostModelDb::comm_fits(Topology t) const {
  return comm_.data() + topo_index(t) * static_cast<std::size_t>(num_clusters_);
}

void CostModelDb::set_comm(ClusterId c, Topology t, const Eq1Fit& fit) {
  comm_[topo_slot(c, t)] = fit;
}

bool CostModelDb::has_comm(ClusterId c, Topology t) const {
  return comm_[topo_slot(c, t)].has_value();
}

const Eq1Fit& CostModelDb::comm_fit(ClusterId c, Topology t) const {
  const auto& fit = comm_[topo_slot(c, t)];
  NP_REQUIRE(fit.has_value(), "no communication fit for cluster/topology; "
                              "run calibration first");
  return *fit;
}

double CostModelDb::comm_ms(ClusterId c, Topology t, double bytes,
                            double p) const {
  // p <= 1 means no inter-processor communication within the cluster.
  if (p <= 1.0) return 0.0;
  return std::abs(comm_fit(c, t).evaluate(bytes, p));
}

void CostModelDb::set_router(ClusterId a, ClusterId b, const LineFit& fit) {
  NP_REQUIRE(a != b, "router fit needs two distinct clusters");
  for (const std::size_t slot : {pair_slot(a, b), pair_slot(b, a)}) {
    pairs_[slot].router = fit;
    pairs_[slot].has_router = true;
  }
}

void CostModelDb::set_coerce(ClusterId a, ClusterId b, const LineFit& fit) {
  NP_REQUIRE(a != b, "coercion fit needs two distinct clusters");
  for (const std::size_t slot : {pair_slot(a, b), pair_slot(b, a)}) {
    pairs_[slot].coerce = fit;
    pairs_[slot].has_coerce = true;
  }
}

double CostModelDb::router_ms(ClusterId a, ClusterId b, double bytes) const {
  if (a == b) return 0.0;
  const PairFits& pair = pairs_[pair_slot(a, b)];
  NP_REQUIRE(pair.has_router, "no router fit for cluster pair; "
                              "run calibration first");
  return std::max(0.0, pair.router.intercept + pair.router.slope * bytes);
}

bool CostModelDb::has_coerce(ClusterId a, ClusterId b) const {
  return a != b && pairs_[pair_slot(a, b)].has_coerce;
}

std::optional<LineFit> CostModelDb::router_fit(ClusterId a,
                                               ClusterId b) const {
  if (a == b) return std::nullopt;
  const PairFits& pair = pairs_[pair_slot(a, b)];
  return pair.has_router ? std::optional(pair.router) : std::nullopt;
}

std::optional<LineFit> CostModelDb::coerce_fit(ClusterId a,
                                               ClusterId b) const {
  if (a == b) return std::nullopt;
  const PairFits& pair = pairs_[pair_slot(a, b)];
  return pair.has_coerce ? std::optional(pair.coerce) : std::nullopt;
}

double CostModelDb::coerce_ms(ClusterId a, ClusterId b, double bytes) const {
  if (!has_coerce(a, b)) return 0.0;
  const LineFit& fit = pairs_[pair_slot(a, b)].coerce;
  return std::max(0.0, fit.intercept + fit.slope * bytes);
}

}  // namespace netpart
