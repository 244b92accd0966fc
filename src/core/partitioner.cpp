#include "core/partitioner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "analysis/race/annotations.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/log.hpp"

namespace netpart {

namespace {

/// Memoizing objective for one cluster's search: f(p) = T_c with this
/// cluster set to p processors and everything else fixed.  Borrows the
/// caller's config (saving/restoring the searched digit) and caches in
/// scratch.objective_cache, so constructing one allocates nothing once the
/// scratch has warmed up.
class ClusterObjective {
 public:
  ClusterObjective(const CycleEstimator& estimator, ProcessorConfig& config,
                   ClusterId cluster, EstimatorScratch& scratch)
      : estimator_(estimator),
        config_(config),
        cluster_(cluster),
        saved_(config[static_cast<std::size_t>(cluster)]),
        cache_(scratch.objective_cache),
        scratch_(scratch) {
    cache_.assign(static_cast<std::size_t>(
                      estimator.network().cluster(cluster).size()) +
                      1,
                  std::numeric_limits<double>::quiet_NaN());
  }

  ~ClusterObjective() {
    config_[static_cast<std::size_t>(cluster_)] = saved_;
  }

  ClusterObjective(const ClusterObjective&) = delete;
  ClusterObjective& operator=(const ClusterObjective&) = delete;

  double operator()(int p) {
    double& slot = cache_[static_cast<std::size_t>(p)];
    if (std::isnan(slot)) {
      config_[static_cast<std::size_t>(cluster_)] = p;
      slot = estimator_.estimate_into(config_, scratch_).t_c_ms;
    }
    return slot;
  }

  /// Batch-score f(lo..hi) into the memo through estimate_batch: the
  /// linear scan's probe set is known up front, so the lane engine can
  /// overlap the evaluations.  Exactly hi-lo+1 evaluations, bitwise the
  /// values the scalar scan would have cached.  (Binary search stays
  /// scalar -- it probes adaptively.)
  void prefill(int lo, int hi) {
    auto& candidates = scratch_.batch_configs;
    auto& results = scratch_.batch_results;
    const auto n = static_cast<std::size_t>(hi - lo + 1);
    if (candidates.size() < n) candidates.resize(n);
    if (results.size() < n) results.resize(n);
    for (int p = lo; p <= hi; ++p) {
      ProcessorConfig& candidate = candidates[static_cast<std::size_t>(p - lo)];
      candidate = config_;
      candidate[static_cast<std::size_t>(cluster_)] = p;
    }
    estimator_.estimate_batch(candidates.data(), n, results.data(),
                              scratch_);
    for (int p = lo; p <= hi; ++p) {
      cache_[static_cast<std::size_t>(p)] =
          results[static_cast<std::size_t>(p - lo)].t_c_ms;
    }
  }

 private:
  const CycleEstimator& estimator_;
  ProcessorConfig& config_;
  ClusterId cluster_;
  int saved_;
  std::vector<double>& cache_;
  EstimatorScratch& scratch_;
};

/// Locate the argmin of a discrete unimodal function on [lo, hi] by binary
/// search (the paper's Fig. 3 assumption: a single global minimum).
int unimodal_argmin(ClusterObjective& f, int lo, int hi,
                    std::uint64_t& steps) {
  while (lo < hi) {
    ++steps;
    const int mid = lo + (hi - lo) / 2;
    if (f(mid) <= f(mid + 1)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Plain scan, robust to multiple minima.  The whole domain is scored in
/// one batched pass first; the scan then reads the memo.  Strict < keeps
/// the first minimum, exactly like the scalar scan did.
int linear_argmin(ClusterObjective& f, int lo, int hi) {
  f.prefill(lo, hi);
  int best = lo;
  for (int p = lo + 1; p <= hi; ++p) {
    if (f(p) < f(best)) best = p;
  }
  return best;
}

}  // namespace

PartitionResult partition(const CycleEstimator& estimator,
                          const AvailabilitySnapshot& snapshot,
                          const PartitionOptions& options,
                          EstimatorScratch* scratch) {
  const Network& net = estimator.network();
  NP_REQUIRE(static_cast<int>(snapshot.available.size()) ==
                 net.num_clusters(),
             "availability snapshot does not match the network");
  NP_REQUIRE(snapshot.total() > 0, "no processors available");

  auto& telemetry = obs::TelemetryRegistry::global();
  static obs::Counter& calls_counter = telemetry.counter("partitioner.calls");
  static obs::Counter& steps_counter =
      telemetry.counter("partitioner.binary_search_steps");
  static obs::Counter& evals_counter =
      telemetry.counter("partitioner.cost_model_evals");
  static obs::Counter& estimator_evals_counter =
      telemetry.counter("estimator.evaluations");
  calls_counter.add(1);
  obs::Span search_span(telemetry, "partition.search", "core");

  EstimatorScratch local_scratch;
  EstimatorScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  const std::uint64_t evals_before = sc.evaluations;
  ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
  bool any_selected = false;
  std::uint64_t search_steps = 0;

  for (ClusterId c : estimator.cluster_order()) {
    const int n = snapshot.available[static_cast<std::size_t>(c)];
    if (n == 0) continue;

    const std::uint64_t cluster_evals_before = sc.evaluations;
    obs::Span cluster_span(telemetry, "partition.cluster", "core");
    int best;
    {
      // The objective borrows `config` and restores the searched digit on
      // destruction; commit the winner only after it is gone.
      ClusterObjective f(estimator, config, c, sc);
      // The Fig. 3 unimodality assumption covers p >= 1; "use none of this
      // cluster" (p = 0, only legal once something is selected) sits off
      // the curve -- it removes the router crossing entirely -- so it is
      // compared against the valley minimum explicitly rather than
      // searched.
      best = options.search == PartitionOptions::Search::Binary
                 ? unimodal_argmin(f, 1, n, search_steps)
                 : linear_argmin(f, 1, n);
      if (any_selected && f(0) <= f(best)) {
        best = 0;
      }
    }
    config[static_cast<std::size_t>(c)] = best;
    if (best > 0) any_selected = true;

    if (cluster_span.active()) {
      cluster_span.attr("cluster", JsonValue(static_cast<std::int64_t>(c)));
      cluster_span.attr("available", JsonValue(n));
      cluster_span.attr("chosen", JsonValue(best));
      cluster_span.attr("evaluations",
                        JsonValue(sc.evaluations - cluster_evals_before));
    }
    if (options.stop_at_partial_cluster && best < n) {
      // Communication locality rule: a partially used cluster means the
      // granularity limit was reached; remoter processors cannot help.
      break;
    }
  }
  NP_ASSERT(any_selected);

  // Materialise the winner once (callers get the full partition vector);
  // +1 accounts for it in the evaluation tally.
  const std::uint64_t fast_evals = sc.evaluations - evals_before;
  estimator.merge_evaluations(fast_evals);
  CycleEstimate winner = estimator.materialize(config, sc);
  Placement placement =
      contiguous_placement(net, config, estimator.cluster_order());
  PartitionResult result{std::move(config), std::move(winner),
                         std::move(placement), estimator.cluster_order(),
                         fast_evals + 1};
  steps_counter.add(search_steps);
  evals_counter.add(result.evaluations);
  estimator_evals_counter.add(result.evaluations);
  if (search_span.active()) {
    search_span.attr("evaluations", JsonValue(result.evaluations));
    search_span.attr("binary_search_steps", JsonValue(search_steps));
    search_span.attr("t_c_ms", JsonValue(result.estimate.t_c_ms));
  }
  NP_LOG_DEBUG << "partitioner chose config with T_c="
               << result.estimate.t_c_ms << "ms after " << result.evaluations
               << " evaluations";
  return result;
}

namespace {

/// One work-stealing sweep worker's state and result.
struct SweepWorker {
  EstimatorScratch scratch;
  ProcessorConfig best_config;
  double best_tc = std::numeric_limits<double>::infinity();
  std::uint64_t best_index = ~std::uint64_t{0};
  std::uint64_t chunks = 0;  ///< chunks claimed from the shared cursor
  std::exception_ptr error;
};

/// Work-stealing sweep: workers repeatedly claim [begin, begin+chunk)
/// index ranges off one atomic cursor until the space is drained, so a
/// worker that lands on cheap configurations simply claims more chunks
/// instead of idling (the static sharding this replaces stalled on the
/// slowest shard).  Index i maps to the mixed-radix odometer state with
/// digit d (cluster d) equal to i / prod(N_0+1 .. N_{d-1}+1) mod (N_d+1)
/// -- digit 0 least significant, matching the serial odometer's increment
/// order.  Within a chunk, valid configurations are gathered into lane
/// groups and scored through estimate_batch.
///
/// Determinism: fetch_add hands each worker strictly increasing begins and
/// indices increase within a chunk, so strict < keeps each worker's
/// first-minimum; the (t_c, index) lexicographic merge in
/// exhaustive_partition then recovers the globally first minimum whatever
/// the steal interleaving was.
void run_sweep_worker(const CycleEstimator& estimator,
                      const AvailabilitySnapshot& snapshot,
                      std::atomic<std::uint64_t>& cursor,
                      std::uint64_t space, std::uint64_t chunk,
                      std::uint64_t chaos_yield_seed, SweepWorker& worker) {
  try {
    constexpr int kLanes = BatchScratch::kLanes;
    ProcessorConfig config(snapshot.available.size(), 0);
    auto& lane_configs = worker.scratch.batch_configs;
    auto& lane_results = worker.scratch.batch_results;
    if (lane_configs.size() < static_cast<std::size_t>(kLanes)) {
      lane_configs.resize(static_cast<std::size_t>(kLanes));
    }
    if (lane_results.size() < static_cast<std::size_t>(kLanes)) {
      lane_results.resize(static_cast<std::size_t>(kLanes));
    }
    std::uint64_t lane_index[kLanes];
    for (;;) {
      NP_ATOMIC_RMW(&cursor, "core.sweep.cursor");
      const std::uint64_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= space) break;
      const std::uint64_t end = std::min(begin + chunk, space);
      NP_WRITE(&worker, "core.sweep.worker_slot");
      ++worker.chunks;
      if (chaos_yield_seed != 0) {
        // Seeded schedule perturbation for the chaos/TSan tier: yield on a
        // deterministic-per-chunk pattern so steal interleavings vary
        // between thread counts and runs without any real randomness.
        std::uint64_t h =
            (chaos_yield_seed ^ begin) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 31;
        if ((h & 3) == 0) std::this_thread::yield();
      }

      std::uint64_t idx = begin;
      for (std::size_t d = 0; d < config.size(); ++d) {
        const auto radix =
            static_cast<std::uint64_t>(snapshot.available[d]) + 1;
        config[d] = static_cast<int>(idx % radix);
        idx /= radix;
      }
      std::uint64_t i = begin;
      while (i < end) {
        int gathered = 0;
        while (i < end && gathered < kLanes) {
          if (config_total(config) > 0) {
            lane_configs[static_cast<std::size_t>(gathered)] = config;
            lane_index[gathered] = i;
            ++gathered;
          }
          ++i;
          std::size_t digit = 0;
          while (digit < config.size()) {
            if (config[digit] < snapshot.available[digit]) {
              ++config[digit];
              break;
            }
            config[digit] = 0;
            ++digit;
          }
        }
        estimator.estimate_batch(lane_configs.data(),
                                 static_cast<std::size_t>(gathered),
                                 lane_results.data(), worker.scratch);
        for (int j = 0; j < gathered; ++j) {
          const double tc = lane_results[static_cast<std::size_t>(j)].t_c_ms;
          // Strict improvement keeps the first (lowest-index) minimum the
          // worker has seen, which is what the serial scan returns on ties.
          if (tc < worker.best_tc) {
            NP_WRITE(&worker, "core.sweep.worker_slot");
            worker.best_tc = tc;
            worker.best_config = lane_configs[static_cast<std::size_t>(j)];
            worker.best_index = lane_index[j];
          }
        }
      }
    }
  } catch (...) {
    NP_WRITE(&worker, "core.sweep.worker_slot");
    worker.error = std::current_exception();
  }
}

}  // namespace

PartitionResult exhaustive_partition(const CycleEstimator& estimator,
                                     const AvailabilitySnapshot& snapshot,
                                     const ExhaustiveOptions& options) {
  const Network& net = estimator.network();
  NP_REQUIRE(static_cast<int>(snapshot.available.size()) ==
                 net.num_clusters(),
             "availability snapshot does not match the network");
  NP_REQUIRE(snapshot.total() > 0, "no processors available");

  auto& telemetry = obs::TelemetryRegistry::global();
  static obs::Counter& calls_counter = telemetry.counter("partitioner.calls");
  static obs::Counter& evals_counter =
      telemetry.counter("partitioner.cost_model_evals");
  static obs::Counter& estimator_evals_counter =
      telemetry.counter("estimator.evaluations");
  calls_counter.add(1);
  obs::Span span(telemetry, "partition.exhaustive", "core");

  // Size of the product space, with an overflow guard: the sweep is the
  // validation oracle for small-to-medium networks, not an algorithm for
  // astronomically wide ones.
  std::uint64_t space = 1;
  for (int n : snapshot.available) {
    const auto radix = static_cast<std::uint64_t>(n) + 1;
    NP_REQUIRE(space <= (std::uint64_t{1} << 62) / radix,
               "configuration space too large for exhaustive enumeration");
    space *= radix;
  }

  int threads = options.threads;
  if (threads <= 0) {
    // Auto: one worker per hardware thread, but below a few thousand
    // evaluations per worker the spawn cost dominates any speedup.
    constexpr std::uint64_t kMinWorkerWork = 2048;
    threads = static_cast<int>(std::min<std::uint64_t>(
        std::max(1u, std::thread::hardware_concurrency()),
        std::max<std::uint64_t>(1, space / kMinWorkerWork)));
  }
  threads = static_cast<int>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(threads), space));

  // Chunk size for the steal cursor: small enough that every worker gets
  // many claims (load balance), large enough to amortise the fetch_add and
  // odometer re-seed.  Rounded up to the lane width so full chunks decode
  // into whole lane groups.
  std::uint64_t chunk = options.chunk;
  if (chunk == 0) {
    chunk = std::clamp<std::uint64_t>(
        space / (static_cast<std::uint64_t>(threads) * 8) + 1, 64, 16384);
  }
  constexpr auto kLanes = static_cast<std::uint64_t>(BatchScratch::kLanes);
  chunk = (chunk + kLanes - 1) / kLanes * kLanes;

  std::vector<SweepWorker> workers(static_cast<std::size_t>(threads));
  std::atomic<std::uint64_t> cursor{0};
  // The cursor doubles as the npracer fork/join token.
  fork_join(threads, &cursor, "core.sweep.pool", [&](int w) {
    run_sweep_worker(estimator, snapshot, cursor, space, chunk,
                     options.chaos_yield_seed,
                     workers[static_cast<std::size_t>(w)]);
  });

  ProcessorConfig best_config;
  double best_tc = std::numeric_limits<double>::infinity();
  std::uint64_t best_index = ~std::uint64_t{0};
  std::uint64_t total_evals = 0;
  std::uint64_t total_batch_evals = 0;
  std::uint64_t steals = 0;
  for (auto& worker : workers) {
    NP_READ(&worker, "core.sweep.worker_slot");
    if (worker.error) std::rethrow_exception(worker.error);
    total_evals += worker.scratch.evaluations;
    total_batch_evals += worker.scratch.batch_evaluations;
    // A worker's first claim is its own assignment; each further claim is
    // a steal from the shared remainder of the space.
    if (worker.chunks > 1) steals += worker.chunks - 1;
    // Workers claim chunks in arbitrary interleavings, so enumeration
    // order across workers is lost; (t_c, index) lexicographic merge
    // recovers the globally first minimum -- bit-identical to serial.
    if (worker.best_tc < best_tc ||
        (worker.best_tc == best_tc && worker.best_index < best_index)) {
      best_tc = worker.best_tc;
      best_config = worker.best_config;
      best_index = worker.best_index;
    }
  }
  NP_ASSERT(!best_config.empty());
  estimator.merge_evaluations(total_evals);
  static obs::Counter& steals_counter =
      telemetry.counter("partitioner.steals");
  static obs::Counter& batch_evals_counter =
      telemetry.counter("estimator.batch_evals");
  steals_counter.add(steals);
  batch_evals_counter.add(total_batch_evals);

  // The winner is materialised through the first worker's scratch: the
  // sweep is over, so no thread still owns it.
  CycleEstimate winner =
      estimator.materialize(best_config, workers[0].scratch);
  Placement placement =
      contiguous_placement(net, best_config, estimator.cluster_order());
  PartitionResult result{std::move(best_config), std::move(winner),
                         std::move(placement), estimator.cluster_order(),
                         total_evals + 1};
  evals_counter.add(result.evaluations);
  estimator_evals_counter.add(result.evaluations);
  if (span.active()) {
    span.attr("threads", JsonValue(threads));
    span.attr("space", JsonValue(static_cast<std::int64_t>(space)));
    span.attr("chunk", JsonValue(static_cast<std::int64_t>(chunk)));
    span.attr("steals", JsonValue(static_cast<std::int64_t>(steals)));
    span.attr("evaluations", JsonValue(result.evaluations));
    span.attr("t_c_ms", JsonValue(result.estimate.t_c_ms));
  }
  NP_LOG_DEBUG << "exhaustive sweep of " << space << " configs on "
               << threads << " threads chose T_c=" << result.estimate.t_c_ms
               << "ms";
  return result;
}

ProcessorConfig config_all_available(const AvailabilitySnapshot& snapshot) {
  NP_REQUIRE(snapshot.total() > 0, "no processors available");
  return snapshot.available;
}

}  // namespace netpart
