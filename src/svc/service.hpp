// The concurrent partition service.
//
// The paper invokes the partitioner once per program start; the production
// shape is a long-lived service answering partition queries under traffic.
// This class puts the `O(K log2 P)` search plus cost-model evaluation
// behind:
//
//   * a sharded LRU decision cache keyed by (network signature,
//     availability epoch, canonical request) -- repeated queries are
//     lookups, and an availability change invalidates by construction;
//   * a fixed worker pool draining a bounded queue -- cold computations
//     never run on client threads, and when the queue is full admission
//     control *sheds* the request with an explicit Overloaded reply
//     instead of queuing without bound;
//   * request coalescing -- concurrent identical requests attach to the
//     one in-flight computation (a shared-future per cache key), so a
//     thundering herd on a cold key costs one compute;
//   * a metrics registry -- counters plus hit/cold latency histograms,
//     exportable as CSV/JSON.
//
// Threading contract: the Network and CostModelDb are read concurrently by
// the workers and must not be mutated while the service is alive (drive
// availability changes through the AvailabilityFeed, not by editing the
// Network).  All public methods are thread-safe.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "calib/cost_model.hpp"
#include "dp/phases.hpp"
#include "net/availability.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_context.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"

namespace netpart {
struct EstimatorScratch;  // core/estimator.hpp
}

namespace netpart::svc {

/// Materialises the ComputationSpec a Partition-kind request names.
/// Must be thread-safe (called concurrently from workers).
using SpecResolver = std::function<ComputationSpec(const PartitionRequest&)>;

/// Test/chaos hook: replaces the real cold path (resolver + estimator +
/// heuristic).  Exceptions it throws surface as Failed replies to every
/// coalesced waiter -- the fault-injection stress tier drives this.
using ColdPathOverride = std::function<PartitionDecision(
    const PartitionRequest&, const AvailabilitySnapshot&)>;

struct ServiceOptions {
  int workers = 4;
  /// Cold requests admitted but not yet started; beyond this, shed.
  std::size_t queue_capacity = 64;
  std::size_t cache_capacity = 1024;
  int cache_shards = 8;
  ColdPathOverride cold_override;
};

class PartitionService {
 public:
  PartitionService(const Network& net, const CostModelDb& db,
                   AvailabilityFeed& feed, SpecResolver resolver,
                   ServiceOptions options = {});

  /// Stops admission, drains the queue (pending jobs complete), joins.
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Asynchronous query.  Cache hits and Overloaded decisions resolve
  /// immediately; cold requests resolve when a worker finishes (coalesced
  /// requests share the initiating request's future).
  std::shared_future<ServiceReply> submit(const PartitionRequest& request);

  /// Synchronous convenience: submit + wait.
  ServiceReply query(const PartitionRequest& request);

  const Network& network() const { return net_; }
  std::uint64_t signature() const { return signature_; }
  const AvailabilityFeed& feed() const { return feed_; }
  DecisionCache& cache() { return cache_; }
  obs::TelemetryRegistry& metrics() { return metrics_; }

 private:
  struct Job {
    PartitionRequest request;
    std::uint64_t key = 0;
    std::uint64_t epoch = 0;
    AvailabilitySnapshot snapshot;
    std::chrono::steady_clock::time_point enqueued;
    /// The submitting request span's context: the worker adopts it so
    /// svc.execute parents under svc.request across the thread hop.
    obs::TraceContext trace;
    std::promise<ServiceReply> promise;
    std::shared_future<ServiceReply> future;
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Each worker owns one EstimatorScratch for its lifetime: after warm-up
  /// a cold compute's search allocates nothing in the estimator.
  void worker_loop();
  void run_cold(Job& job, EstimatorScratch& scratch);
  PartitionDecision cold_compute(const PartitionRequest& request,
                                 const AvailabilitySnapshot& snapshot,
                                 EstimatorScratch& scratch) const;
  /// Purge stale cache entries the first time a new epoch is observed.
  void observe_epoch(std::uint64_t epoch);

  const Network& net_;
  const CostModelDb& db_;
  AvailabilityFeed& feed_;
  SpecResolver resolver_;
  ServiceOptions options_;
  std::uint64_t signature_;

  DecisionCache cache_;
  obs::TelemetryRegistry metrics_;
  obs::Counter& requests_;
  obs::Counter& hits_;
  obs::Counter& coalesced_;
  obs::Counter& shed_;
  obs::Counter& failed_;
  obs::Counter& cold_computes_;
  obs::Counter& epoch_bumps_;
  obs::LatencyHistogram& hit_latency_;
  obs::LatencyHistogram& cold_latency_;

  std::atomic<std::uint64_t> seen_epoch_{0};

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<JobPtr> queue_;
  std::unordered_map<std::uint64_t, JobPtr> inflight_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  // last member: joins before teardown
};

}  // namespace netpart::svc
