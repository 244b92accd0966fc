#include "svc/service.hpp"

#include "analysis/race/annotations.hpp"
#include "core/estimator.hpp"
#include "obs/span.hpp"
#include "svc/validate.hpp"
#include "util/adaptive_lock.hpp"
#include "util/error.hpp"

namespace netpart::svc {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// An upper bound on the jobs in flight at once: a full queue, and per
/// worker the job it runs and the one it answered but has not yet erased.
std::size_t inflight_bound(const ServiceOptions& options) {
  NP_REQUIRE(options.workers >= 1, "service needs at least one worker");
  NP_REQUIRE(options.queue_capacity >= 1,
             "service queue capacity must be positive");
  const std::size_t per_worker = 2 * static_cast<std::size_t>(options.workers);
  NP_REQUIRE(options.queue_capacity <= SIZE_MAX - per_worker,
             "service queue capacity too large");
  return options.queue_capacity + per_worker;
}

}  // namespace

PartitionService::PartitionService(const Network& net, const CostModelDb& db,
                                   AvailabilityFeed& feed,
                                   SpecResolver resolver,
                                   ServiceOptions options)
    : net_(net),
      db_(db),
      feed_(feed),
      resolver_(std::move(resolver)),
      options_(std::move(options)),
      signature_(network_signature(net)),
      cache_(options_.cache_capacity, options_.cache_shards),
      requests_(metrics_.counter("requests")),
      hits_(metrics_.counter("cache_hits")),
      coalesced_(metrics_.counter("coalesced")),
      shed_(metrics_.counter("shed_overload")),
      failed_(metrics_.counter("failed")),
      cold_computes_(metrics_.counter("cold_computes")),
      epoch_bumps_(metrics_.counter("epoch_bumps")),
      hit_latency_(metrics_.latency("hit")),
      cold_latency_(metrics_.latency("cold")),
      inflight_(inflight_bound(options_)) {
  // npracer contract: queue_, inflight_, and stopping_ move only under
  // mutex_; everything the constructor wrote before the fork is visible to
  // the workers through the fork/start edge.
  NP_GUARDED_BY(&queue_, &mutex_, "svc.service.queue");
  NP_GUARDED_BY(&inflight_, &mutex_, "svc.service.inflight");
  NP_GUARDED_BY(&stopping_, &mutex_, "svc.service.stopping");
  NP_ATOMIC_RELEASE(&seen_epoch_, "svc.service.seen_epoch");
  seen_epoch_.store(feed_.epoch(), std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  NP_THREAD_FORK(this, "svc.service.workers");
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PartitionService::~PartitionService() {
  {
    std::lock_guard lock(mutex_);
    NP_LOCK_SCOPE(&mutex_, "svc.service.mutex");
    NP_WRITE(&stopping_, "svc.service.stopping");
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
  NP_THREAD_JOIN(this, "svc.service.workers");
}

void PartitionService::observe_epoch(std::uint64_t epoch) {
  std::uint64_t seen = seen_epoch_.load(std::memory_order_acquire);
  NP_ATOMIC_ACQUIRE(&seen_epoch_, "svc.service.seen_epoch");
  while (epoch > seen) {
    NP_ATOMIC_RMW(&seen_epoch_, "svc.service.seen_epoch");
    if (seen_epoch_.compare_exchange_weak(seen, epoch,
                                          std::memory_order_acq_rel)) {
      cache_.invalidate_before(epoch);
      epoch_bumps_.add();
      break;
    }
  }
}

std::shared_future<ServiceReply> PartitionService::submit(
    const PartitionRequest& request) {
  const auto t0 = Clock::now();
  obs::Span span(obs::TelemetryRegistry::global(), "svc.request", "svc");
  requests_.add();
  // Admission gate: a request that violates its own contract is rejected
  // here, before it can occupy a cache slot, coalesce other clients onto a
  // doomed key, or reach arithmetic in the cold path that assumes the
  // contract.  validate_request never allocates, and neither does the hit
  // path below once the entry's reply exists (bench_partition_hotpath
  // --smoke gates service_hit_allocations at zero).
  if (const char* violation = validate_request(request)) {
    failed_.add();
    span.attr("outcome", JsonValue("invalid"));
    return ready_reply(
        ServiceReply{ServiceStatus::Failed, nullptr, false, violation});
  }
  // A hit needs only the epoch, read lock-free: no feed mutex, no snapshot
  // copy, and the reply is the cache entry's own ready future.
  std::uint64_t epoch = feed_.epoch();
  observe_epoch(epoch);
  std::uint64_t key = request_key(request, signature_, epoch);
  if (auto hit = cache_.lookup_reply(key); hit.valid()) {
    hits_.add();
    hit_latency_.record(us_since(t0));
    span.attr("outcome", JsonValue("hit"));
    return hit;
  }

  // A miss hands the job a snapshot.  If the epoch moved since the
  // lock-free read, re-key, so the job's key, epoch and snapshot all come
  // from this one read and no decision is filed under another epoch's key.
  auto [snapshot, read_epoch] = feed_.read();
  if (read_epoch != epoch) {
    epoch = read_epoch;
    observe_epoch(epoch);
    key = request_key(request, signature_, epoch);
  }

  // The job is built before the queue lock, which every worker pop takes
  // too: under it, admission only looks up and moves pointers.  A request
  // the lock turns away (rejected, coalesced, answered by the second cache
  // check, or shed) drops its job after the unlock.
  auto job = std::make_shared<Job>();
  job->request = request;
  job->key = key;
  job->epoch = epoch;
  job->snapshot = std::move(snapshot);
  job->enqueued = t0;
  job->trace = span.context();
  job->future = job->promise.get_future().share();

  std::unique_lock lock(mutex_, std::defer_lock);
  lock_adaptive(lock);
  // Explicit acquire/release (not NP_LOCK_SCOPE): this function unlocks
  // early on several paths, and the annotation must track the *real* lock
  // state or the detector would model critical sections that never were.
  NP_LOCK_ACQUIRE(&mutex_, "svc.service.mutex");
  NP_READ(&stopping_, "svc.service.stopping");
  if (stopping_) {
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    span.attr("outcome", JsonValue("rejected"));
    return ready_reply(ServiceReply{ServiceStatus::Failed, nullptr, false,
                                    "service shutting down"});
  }
  NP_READ(&inflight_, "svc.service.inflight");
  if (const JobPtr* running = inflight_.find(key)) {
    coalesced_.add();
    span.attr("outcome", JsonValue("coalesced"));
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    return (*running)->future;
  }
  // Double-checked: a worker may have completed this key between the
  // lock-free miss above and acquiring the lock.
  if (auto hit = cache_.peek(key)) {
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    hits_.add();
    hit_latency_.record(us_since(t0));
    span.attr("outcome", JsonValue("hit"));
    return ready_reply(ServiceReply{ServiceStatus::Ok, std::move(hit),
                                    /*cache_hit=*/true, {}});
  }
  NP_READ(&queue_, "svc.service.queue");
  if (queue_.size() >= options_.queue_capacity) {
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    lock.unlock();
    shed_.add();
    span.attr("outcome", JsonValue("shed"));
    return ready_reply(ServiceReply{ServiceStatus::Overloaded, nullptr,
                                    false, "request queue full"});
  }
  NP_WRITE(&inflight_, "svc.service.inflight");
  inflight_.insert(key, job);
  NP_WRITE(&queue_, "svc.service.queue");
  queue_.push_back(job);
  NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
  lock.unlock();
  work_ready_.notify_one();
  span.attr("outcome", JsonValue("enqueued"));
  return job->future;
}

ServiceReply PartitionService::query(const PartitionRequest& request) {
  return submit(request).get();
}

void PartitionService::worker_loop() {
  // One scratch per worker thread, reused across every cold compute this
  // worker ever runs (see EstimatorScratch's single-owner contract).  The
  // embedded BatchScratch's buffers only grow, and its bytes memo is
  // stamped with each request's stack-local CycleEstimator (binding id,
  // not address), so a new request neither reallocates nor resets them.
  EstimatorScratch scratch;
  NP_THREAD_START(this, "svc.service.workers");
  // The key of this worker's last answered job: its in-flight entry is
  // erased by the next pop, under the lock the pop takes anyway.
  std::optional<std::uint64_t> answered;
  while (JobPtr job = next_job(answered)) {
    answered.reset();
    if (run_cold(*job, scratch)) answered = job->key;
  }
  NP_THREAD_END(this, "svc.service.workers");
}

PartitionService::JobPtr PartitionService::next_job(
    std::optional<std::uint64_t> answered) {
  // Declared before the lock, so destroyed after it is released: dropping
  // the last reference to the answered Job stays out of the critical
  // section.
  std::optional<JobPtr> done;
  std::unique_lock lock(mutex_, std::defer_lock);
  lock_adaptive(lock);
  // Explicit acquire/release: the condition wait below drops and retakes
  // the real mutex, and the annotations must mirror that or the detector
  // would see one long critical section that never happened (and miss the
  // happens-before edges the re-acquisition creates).
  NP_LOCK_ACQUIRE(&mutex_, "svc.service.mutex");
  for (;;) {
    NP_READ(&stopping_, "svc.service.stopping");
    NP_READ(&queue_, "svc.service.queue");
    if (stopping_ || !queue_.empty()) break;
    NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
    work_ready_.wait(lock);
    NP_LOCK_ACQUIRE(&mutex_, "svc.service.mutex");
  }
  // The previous job's deferred erase.  Until now its entry held a ready
  // future, so a request that reached it was answered without a compute;
  // an idle worker keeps that one entry while it waits.
  if (answered) {
    NP_WRITE(&inflight_, "svc.service.inflight");
    done = inflight_.extract(*answered);
  }
  JobPtr job;
  if (!queue_.empty()) {  // otherwise stopping and fully drained
    NP_WRITE(&queue_, "svc.service.queue");
    job = std::move(queue_.front());
    queue_.pop_front();
  }
  NP_LOCK_RELEASE(&mutex_, "svc.service.mutex");
  return job;
}

bool PartitionService::run_cold(Job& job, EstimatorScratch& scratch) {
  // Adopt the submitter's request context: the execute span joins that
  // trace as a child even though it runs on a worker thread.
  obs::ContextScope ctx(job.trace);
  obs::Span span(obs::TelemetryRegistry::global(), "svc.execute", "svc");
  if (span.active()) {
    span.attr("queue_wait_us", JsonValue(us_since(job.enqueued)));
  }
  ServiceReply reply;
  try {
    PartitionDecision decision =
        options_.cold_override
            ? options_.cold_override(job.request, job.snapshot)
            : cold_compute(job.request, job.snapshot, scratch);
    decision.key = job.key;
    decision.epoch = job.epoch;
    auto shared =
        std::make_shared<const PartitionDecision>(std::move(decision));
    cache_.insert(shared);
    cold_computes_.add();
    cold_latency_.record(us_since(job.enqueued));
    reply = ServiceReply{ServiceStatus::Ok, std::move(shared), false, {}};
    span.attr("outcome", JsonValue("ok"));
  } catch (const std::exception& e) {
    failed_.add();
    span.attr("outcome", JsonValue("failed"));
    reply = ServiceReply{ServiceStatus::Failed, nullptr, false, e.what()};
  }
  const bool ok = reply.status == ServiceStatus::Ok;
  if (!ok) {
    // A failure is not cached, so its entry goes before the reply: a retry
    // sent after the reply must recompute, not coalesce onto the failure.
    std::optional<JobPtr> done;  // freed after the lock is released
    AdaptiveLockGuard lock(mutex_);
    NP_LOCK_SCOPE(&mutex_, "svc.service.mutex");
    NP_WRITE(&inflight_, "svc.service.inflight");
    done = inflight_.extract(job.key);
  }
  // A success answers first; its entry is erased by the next pop.  The
  // decision is already in the cache, and a request that finds the entry
  // in between gets this ready future: still one compute per key.
  job.promise.set_value(std::move(reply));
  return ok;
}

PartitionDecision PartitionService::cold_compute(
    const PartitionRequest& request, const AvailabilitySnapshot& snapshot,
    EstimatorScratch& scratch) const {
  PartitionDecision decision;
  if (request.kind == PartitionRequest::Kind::Repartition) {
    NP_REQUIRE(!request.rate_milli.empty(),
               "repartition request carries no rates");
    std::vector<double> rates;
    rates.reserve(request.rate_milli.size());
    for (std::int32_t r : request.rate_milli) {
      NP_REQUIRE(r >= 1, "quantised rates must be >= 1");
      rates.push_back(static_cast<double>(r));
    }
    decision.partition = proportional_partition(rates, request.n);
    return decision;
  }
  NP_REQUIRE(resolver_ != nullptr,
             "Partition-kind request but no spec resolver registered");
  const ComputationSpec spec = resolver_(request);
  CycleEstimator estimator(net_, db_, spec);
  PartitionResult result =
      partition(estimator, snapshot, request.options, &scratch);
  decision.partition = std::move(result.estimate.partition);
  decision.config = std::move(result.config);
  decision.placement = std::move(result.placement);
  decision.t_c_ms = result.estimate.t_c_ms;
  decision.evaluations = result.evaluations;
  return decision;
}

}  // namespace netpart::svc
