#include "core/general.hpp"

#include <algorithm>
#include <limits>

#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace netpart {

namespace {

/// Hill-climb from `config` with +/-1 moves until a local minimum; returns
/// the local minimum's objective value and mutates `config` in place.
/// Every candidate is one move away from the current configuration, so
/// each round is one best_neighbour_move scan against the bound baseline
/// -- validation, gather, and the weight-sum prefix are reused instead of
/// recomputed 2K times per round.  Each probe counts one evaluation
/// toward `budget`, checked between rounds.
double hill_climb(const CycleEstimator& estimator,
                  const AvailabilitySnapshot& snapshot,
                  ProcessorConfig& config, std::uint64_t budget,
                  std::uint64_t* evaluations, EstimatorScratch& scratch) {
  ++*evaluations;
  double current =
      estimator.bind_delta(config, scratch.delta, scratch).t_c_ms;
  while (*evaluations < budget) {
    const NeighbourMove move =
        best_neighbour_move(estimator, snapshot, current, scratch);
    *evaluations += move.probes;
    if (move.cluster < 0) break;
    estimator.commit_delta(move.cluster, move.delta, scratch.delta);
    config[static_cast<std::size_t>(move.cluster)] += move.delta;
    current = move.t_c_ms;
  }
  return current;
}

}  // namespace

NeighbourMove best_neighbour_move(const CycleEstimator& estimator,
                                  const AvailabilitySnapshot& snapshot,
                                  double baseline_t_c_ms,
                                  EstimatorScratch& scratch) {
  DeltaScratch& d = scratch.delta;
  NeighbourMove best;
  best.t_c_ms = baseline_t_c_ms;
  for (std::size_t c = 0; c < d.config.size(); ++c) {
    for (const int delta : {+1, -1}) {
      const int moved = d.config[c] + delta;
      if (moved < 0 || moved > snapshot.available[c]) continue;
      if (d.total_p + delta == 0) continue;
      const double value =
          estimator.estimate_delta(static_cast<ClusterId>(c), delta, d,
                                   scratch)
              .t_c_ms;
      ++best.probes;
      if (value < best.t_c_ms - 1e-12) {
        best.t_c_ms = value;
        best.cluster = static_cast<ClusterId>(c);
        best.delta = delta;
      }
    }
  }
  return best;
}

PartitionResult general_partition(const CycleEstimator& estimator,
                                  const AvailabilitySnapshot& snapshot,
                                  const GeneralPartitionOptions& options,
                                  EstimatorScratch* scratch) {
  const Network& net = estimator.network();
  NP_REQUIRE(static_cast<int>(snapshot.available.size()) ==
                 net.num_clusters(),
             "availability snapshot does not match the network");
  NP_REQUIRE(snapshot.total() > 0, "no processors available");
  std::uint64_t evaluations = 0;
  EstimatorScratch local_scratch;
  EstimatorScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  const std::uint64_t batch_evals_before = sc.batch_evaluations;
  const std::uint64_t delta_evals_before = sc.delta_evaluations;

  // Deterministic starting points, staged in the scratch's reusable
  // config buffer (assignment into a retained ProcessorConfig reuses its
  // capacity, so a warm scratch assembles the start set allocation-free).
  auto& starts = sc.batch_configs;
  std::size_t num_starts = 0;
  const auto add_start = [&](const ProcessorConfig& config) {
    if (starts.size() <= num_starts) starts.resize(num_starts + 1);
    starts[num_starts++] = config;
  };
  const PartitionResult heuristic_start =
      partition(estimator, snapshot, {}, &sc);
  add_start(heuristic_start.config);
  add_start(config_all_available(snapshot));
  {
    ProcessorConfig single(snapshot.available.size(), 0);
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      const int n = snapshot.available[static_cast<std::size_t>(c)];
      if (n == 0) continue;
      std::fill(single.begin(), single.end(), 0);
      single[static_cast<std::size_t>(c)] = n;
      add_start(single);
    }

    // Random starts widen the basin coverage.
    Rng rng(options.seed);
    for (int s = 0; s < options.random_starts; ++s) {
      int total = 0;
      for (std::size_t c = 0; c < single.size(); ++c) {
        single[c] =
            static_cast<int>(rng.next_int(0, snapshot.available[c]));
        total += single[c];
      }
      if (total == 0) continue;
      add_start(single);
    }
  }
  // Sorted + deduplicated: the exact sequence the former std::set visited,
  // without its per-node allocations.
  std::sort(starts.begin(), starts.begin() + num_starts);
  num_starts = static_cast<std::size_t>(
      std::unique(starts.begin(), starts.begin() + num_starts) -
      starts.begin());

  ProcessorConfig best_config;
  ProcessorConfig config;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < num_starts; ++s) {
    config = starts[s];
    const double value =
        hill_climb(estimator, snapshot, config, options.max_evaluations,
                   &evaluations, sc);
    if (value < best_value) {
      best_value = value;
      std::swap(best_config, config);
    }
  }
  NP_ASSERT(!best_config.empty());
  NP_LOG_DEBUG << "general partitioner: T_c=" << best_value << "ms from "
               << num_starts << " starts";

  // Fold the climb's fast-path evaluations into the estimator's tally and
  // the per-path counters (partition() above already accounted for its
  // own; +1 covers the winner's materialisation).  Deltas, not
  // totals: a caller-provided scratch carries counts from prior searches.
  estimator.merge_evaluations(evaluations);
  auto& telemetry = obs::TelemetryRegistry::global();
  static obs::Counter& evals_counter =
      telemetry.counter("estimator.evaluations");
  static obs::Counter& batch_evals_counter =
      telemetry.counter("estimator.batch_evals");
  static obs::Counter& delta_evals_counter =
      telemetry.counter("estimator.delta_evals");
  evals_counter.add(evaluations + 1);
  batch_evals_counter.add(sc.batch_evaluations - batch_evals_before);
  delta_evals_counter.add(sc.delta_evaluations - delta_evals_before);
  CycleEstimate winner = estimator.materialize(best_config, sc);
  Placement placement =
      contiguous_placement(net, best_config, estimator.cluster_order());
  return PartitionResult{std::move(best_config), std::move(winner),
                         std::move(placement), estimator.cluster_order(),
                         heuristic_start.evaluations + evaluations + 1};
}

}  // namespace netpart
