// Topology-specific communication cost models.
//
// The partitioner never talks to the network at runtime; it consults cost
// functions constructed offline by benchmarking (Section 3 of the paper):
//
//   T_comm[C_i, tau](b, p) = c1 + c2 p + b (c3 + c4 p)         (Eq. 1)
//   T_router[C_i, C_j](b), T_coerce[C_i, C_j](b)               (linear in b)
//
// All costs are in milliseconds, matching the paper's published constants.
// Eq. 1 fits can dip negative for small p (the paper observed this at
// P2 = 2); following the paper, evaluation returns the absolute value.
//
// Layout.  A fit depends on its cluster(s) and topology only, never on a
// request, so the database stores its fits in the flat form the
// estimator's Eq. 1/2/5 fold reads directly, through pointers its
// constructor takes once:
//
//   * Eq. 1 fits topology-major, slot t * K + c: one topology's K fits sit
//     side by side (comm_fits(t));
//   * router and coercion lines, with presence flags, in one ordered
//     K x K table, slot a * K + b (pair_fits()).  set_router(a, b) and
//     set_coerce(a, b) write both (a, b) and (b, a), so a lookup needs no
//     min/max.
//
// Both tables are sized by the constructor and never reallocate.
#pragma once

#include <optional>
#include <vector>

#include "net/ids.hpp"
#include "topo/topology.hpp"
#include "util/least_squares.hpp"

namespace netpart {

/// Database of fitted cost functions for one network.
class CostModelDb {
 public:
  /// The router and coercion lines of one ordered cluster pair.  An
  /// absent line stays all-zero: max(0, 0 + 0 * b) is coerce_ms()'s 0.
  struct PairFits {
    LineFit router;
    LineFit coerce;
    bool has_router = false;
    bool has_coerce = false;
  };

  explicit CostModelDb(int num_clusters);

  int num_clusters() const { return num_clusters_; }

  void set_comm(ClusterId c, Topology t, const Eq1Fit& fit);
  bool has_comm(ClusterId c, Topology t) const;
  /// The raw fit (throws InvalidArgument when absent).
  const Eq1Fit& comm_fit(ClusterId c, Topology t) const;

  /// Evaluate T_comm[C, tau](b, p) in msec, with the paper's absolute-value
  /// fix-up for small-p fits.
  double comm_ms(ClusterId c, Topology t, double bytes, double p) const;

  void set_router(ClusterId a, ClusterId b, const LineFit& fit);
  void set_coerce(ClusterId a, ClusterId b, const LineFit& fit);

  /// T_router[C_a, C_b](bytes) in msec; clamped at zero (a fitted intercept
  /// can be slightly negative).
  double router_ms(ClusterId a, ClusterId b, double bytes) const;

  /// T_coerce[C_a, C_b](bytes) in msec; zero when no coercion fit was
  /// recorded for the pair (same data format).
  double coerce_ms(ClusterId a, ClusterId b, double bytes) const;

  bool has_coerce(ClusterId a, ClusterId b) const;

  /// Raw fits (for persistence and reporting); nullopt when absent.
  std::optional<LineFit> router_fit(ClusterId a, ClusterId b) const;
  std::optional<LineFit> coerce_fit(ClusterId a, ClusterId b) const;

  /// The flat tables (see Layout): topology t's K Eq. 1 fits by ClusterId,
  /// and the K x K pair table by a * K + b.  Unchecked; valid for the
  /// database's lifetime.
  const std::optional<Eq1Fit>* comm_fits(Topology t) const;
  const PairFits* pair_fits() const { return pairs_.data(); }

 private:
  std::size_t pair_slot(ClusterId a, ClusterId b) const;
  std::size_t topo_slot(ClusterId c, Topology t) const;

  int num_clusters_;
  std::vector<std::optional<Eq1Fit>> comm_;  // topology x cluster
  std::vector<PairFits> pairs_;              // ordered cluster pair
};

}  // namespace netpart
