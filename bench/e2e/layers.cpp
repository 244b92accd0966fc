// The traced run: per-layer metrics, the layer replay, and the
// reconciliation of the replayed layers against the service end to end.
//
// Nothing in the library changes for this.  Service-side numbers come from
// the spans the library already emits (svc.request, svc.execute,
// partition.search) and from its counters.  The replay calls each layer's
// public function in PartitionService::submit / cold_compute order and
// times every call with a clock pair.  It does not time them through
// obs::Span: a span's own open/close work overlaps a short layer's body in
// the pipeline, which on a 4-core x86-64 VM under-reported request_key by
// about 30 % and a cache lookup by about 70 %.  A short extra pass wraps
// every layer call in a bench span (category "bench") for the Chrome trace
// and reports each layer's span self time beside its clock time.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <optional>
#include <unordered_map>

#include "core/estimator.hpp"
#include "core/general.hpp"
#include "core/partitioner.hpp"
#include "e2e.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "svc/request.hpp"
#include "svc/validate.hpp"
#include "util/error.hpp"

namespace netpart::e2e {

namespace {

obs::TelemetryRegistry& reg() { return obs::TelemetryRegistry::global(); }

/// Span buffer bound while tracing (a span record costs a few hundred
/// bytes; this keeps a fast workload's buffer near 100 MB).
constexpr std::size_t kRecordCapacity = 300000;
constexpr std::uint64_t kReplayMax = 100000;
constexpr std::uint64_t kReconMax = 20000;
/// Requests per turn when the service and the replay alternate.
constexpr std::uint64_t kReconTurn = 256;
/// Requests the span-instrumented replay pass covers.
constexpr std::uint64_t kTracedReplay = 1024;
/// Service spans kept for the Chrome trace file.
constexpr std::size_t kTraceKeep = 20000;
/// A layer with fewer replayed samples than this gets a fill-in probe.
constexpr std::uint64_t kMinSamples = 1000;

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Spans recorded so far, leaving the buffer empty.
std::vector<obs::SpanRecord> harvest() {
  std::vector<obs::SpanRecord> spans = reg().spans();
  reg().clear_events();
  return spans;
}

/// Global span recording on for the scope.
class Tracing {
 public:
  Tracing() {
    reg().clear_events();
    reg().set_record_capacity(kRecordCapacity);
    reg().set_enabled(true);
  }
  ~Tracing() { reg().set_enabled(false); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

bool buffer_nearly_full() {
  return reg().span_count() >= kRecordCapacity * 9 / 10;
}

const JsonValue* find_attr(const obs::SpanRecord& s, const char* key) {
  for (const auto& [k, v] : s.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Per span name: mean of (duration - time its child spans cover).
std::map<std::string, double> self_times_us(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const obs::SpanRecord& s : spans) child_us[s.parent_span_id] += s.dur_us;
  std::map<std::string, std::pair<double, std::uint64_t>> sums;
  for (const obs::SpanRecord& s : spans) {
    const auto it = child_us.find(s.span_id);
    auto& [sum, n] = sums[s.name];
    sum += s.dur_us - (it == child_us.end() ? 0.0 : it->second);
    ++n;
  }
  std::map<std::string, double> out;
  for (const auto& [name, sn] : sums) {
    out[name] = sn.first / static_cast<double>(sn.second);
  }
  return out;
}

// --- service spans ----------------------------------------------------------

/// What the library's own spans say about a traced service phase.
struct SvcSpans {
  std::vector<double> hit_submit_us;
  std::vector<double> queue_wait_us;
  std::vector<double> execute_us;
  std::vector<double> execute_self_us;
};

void collect_svc(const std::vector<obs::SpanRecord>& spans, SvcSpans& out) {
  // Self time of svc.execute: its duration minus its partition.search child.
  std::unordered_map<std::uint64_t, double> search_us;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "partition.search") search_us[s.parent_span_id] += s.dur_us;
  }
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "svc.request") {
      const JsonValue* outcome = find_attr(s, "outcome");
      if (outcome != nullptr && outcome->as_string() == "hit") {
        out.hit_submit_us.push_back(s.dur_us);
      }
    } else if (s.name == "svc.execute") {
      if (const JsonValue* q = find_attr(s, "queue_wait_us")) {
        out.queue_wait_us.push_back(q->as_double());
      }
      out.execute_us.push_back(s.dur_us);
      const auto it = search_us.find(s.span_id);
      out.execute_self_us.push_back(
          s.dur_us - (it == search_us.end() ? 0.0 : it->second));
    }
  }
}

struct SvcCounters {
  std::uint64_t requests = 0, hits = 0, coalesced = 0, shed = 0;
  std::uint64_t evictions = 0, invalidated = 0;
};

SvcCounters counters_of(svc::PartitionService& s) {
  const svc::DecisionCache::Stats c = s.cache().stats();
  auto& m = s.metrics();
  return {m.counter("requests").value(),  m.counter("cache_hits").value(),
          m.counter("coalesced").value(), m.counter("shed_overload").value(),
          c.evictions,                    c.invalidated};
}

/// Client ops sending each client's own sequence of `stream` through `rig`.
OpFn rig_ops(ServiceRig& rig, const RequestStream& stream,
             std::vector<std::uint64_t>& next) {
  next.assign(static_cast<std::size_t>(stream.clients()), 0);
  return [&rig, &stream, &next](int c) {
    thread_local svc::PartitionRequest buf;
    const svc::PartitionRequest& request =
        stream.at(c, next[static_cast<std::size_t>(c)]++, buf);
    return rig.service().submit(request).get().status ==
           svc::ServiceStatus::Ok;
  };
}

// --- the layer replay -------------------------------------------------------

/// The replay's worker thread, reached through a mutex, a condition
/// variable and a promise -- the primitives PartitionService's queue is
/// built from -- so a replayed cold path pays the same two wake-ups.
class Worker {
 public:
  Worker() : thread_([this] { loop(); }) {}
  ~Worker() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Run `job` on the worker and wait for it (exceptions propagate).
  void run(std::function<void()> job) {
    auto task = std::make_shared<Task>();
    task->job = std::move(job);
    const std::shared_future<void> done = task->promise.get_future().share();
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    done.get();
  }

 private:
  struct Task {
    std::function<void()> job;
    std::promise<void> promise;
  };

  void loop() {
    for (;;) {
      std::shared_ptr<Task> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        task->job();
        task->promise.set_value();
      } catch (...) {
        task->promise.set_exception(std::current_exception());
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  bool stop_ = false;
  std::thread thread_;  // last: joins before the queue goes away
};

/// Replayed layers.  Submit-side layers run on the calling thread, the
/// cold_compute layers (from kResolve on) on the replay's Worker.
enum Layer : std::size_t {
  kMeter,
  kValidate,
  kFeedRead,
  kInvalidate,
  kRequestKey,
  kLookupHit,
  kLookupMiss,
  kHitHistogram,
  kReply,
  kHandoff,
  kResolve,
  kEstimatorBuild,
  kSearch,
  kProportional,
  kDecision,
  kInsert,
  kColdHistogram,
  kColdMeter,
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "obs.meter",        "svc.validate",     "net.feed_read",         "svc.cache.invalidate",
    "svc.request_key",  "svc.cache.lookup_hit",  "svc.cache.lookup_miss",
    "obs.histogram",    "svc.reply",             "svc.handoff",
    "apps.resolve",     "core.estimator_build",  "core.search",
    "dp.proportional",  "svc.decision",          "svc.cache.insert",
    "obs.histogram",    "obs.meter"};

constexpr bool worker_side(Layer l) { return l >= kResolve; }

/// Replay of the service's layers over a request stream, one request at a
/// time, in the service's order and on the service's two thread roles.  A
/// layer's time is its clock pair less an empty clock pair taken beside it
/// on the same thread.
class Replay {
 public:
  explicit Replay(const TraceTarget& t)
      : t_(t),
        epochs_(t.served->net),
        cache_(t.cache_capacity, svc::ServiceOptions{}.cache_shards) {}

  /// The set-up's cache warm-up, through the same layers (on a warm
  /// workload these are the only misses the replay sees).
  void warm() {
    for (const svc::PartitionRequest& r : t_.warm) one(r);
  }

  /// Replay stream requests [from, to); `recon` adds them to the
  /// reconciliation sums.  Stops once `deadline` passes; returns where.
  std::uint64_t run(std::uint64_t from, std::uint64_t to, bool recon,
                    Clock::time_point deadline) {
    recon_ = recon;
    svc::PartitionRequest buf;
    const RequestStream& s = *t_.stream;
    const auto clients = static_cast<std::uint64_t>(s.clients());
    std::uint64_t r = from;
    for (; r < to; ++r) {
      if ((r - from) % 1024 == 1023 && Clock::now() > deadline) break;
      if (t_.churn_every != 0 && r != 0 && r % t_.churn_every == 0) {
        epochs_.churn_step(revoke_);
        revoke_ = !revoke_;
      }
      one(s.at(static_cast<int>(r % clients), r / clients, buf));
    }
    recon_ = false;
    return r;
  }

  /// Replay [from, from + count) with every layer call wrapped in a bench
  /// span; the timings of this pass are not kept.  Returns its spans.
  std::vector<obs::SpanRecord> traced(std::uint64_t from, std::uint64_t count) {
    traced_ = true;
    run(from, from + count, false, Clock::time_point::max());
    traced_ = false;
    return harvest();
  }

  /// Probes for layers the stream left with too few samples.
  void fill_in(const std::vector<svc::PartitionRequest>& requests) {
    // Hits (cold_start never hits): look recent decisions up again.
    if (acc_[kLookupHit].n < kMinSamples) {
      for (const auto& d : recent_) {
        if (auto hit = lookup(d->key)) reply(std::move(hit), {});
      }
    }
    // Misses (hot_zipf has none after warm-up): keys of an epoch the feed
    // has not reached.
    for (std::uint64_t i = 0; acc_[kLookupMiss].n < kMinSamples; ++i) {
      const svc::PartitionRequest& r = requests[i % requests.size()];
      lookup(svc::request_key(r, t_.served->signature, seen_ + 1 + i));
    }
    // Eq. 3 for workloads that send no Repartition requests: the split a
    // rebalance of a decision's own ranks at nominal speed would ask for.
    if (acc_[kProportional].n < kMinSamples && !recent_.empty()) {
      worker_.run([this] {
        for (std::uint64_t i = 0; i < kMinSamples; ++i) {
          const svc::PartitionDecision& d = *recent_[i % recent_.size()];
          std::vector<double> weights;
          for (std::size_t c = 0; c < d.config.size(); ++c) {
            weights.insert(
                weights.end(), static_cast<std::size_t>(d.config[c]),
                1.0 / t_.served->net.cluster(static_cast<ClusterId>(c))
                          .type()
                          .flop_time.as_micros());
          }
          Timed timed(*this, kProportional);
          sink_ += static_cast<double>(
              proportional_partition(weights, d.partition.total())
                  .num_ranks());
        }
      });
    }
    // Invalidation (only churn_mixed bumps epochs): refill the cache with
    // the recent decisions, then drop them all as an epoch bump would.
    while (acc_[kInvalidate].n < 16 && !recent_.empty()) {
      for (const auto& d : recent_) cache_.insert(d);
      Timed timed(*this, kInvalidate);
      sink_ += static_cast<double>(cache_.invalidate_before(seen_ + 1));
    }
  }

  /// Mean time of a layer (or of two layers pooled), ns.
  double mean_ns(Layer a, Layer b = kLayerCount) const {
    double raw = 0.0;
    double n = 0.0;
    for (const Layer l : {a, b}) {
      if (l == kLayerCount) continue;
      raw += static_cast<double>(acc_[l].raw_ns) -
             static_cast<double>(acc_[l].n) * floor_ns(worker_side(l));
      n += static_cast<double>(acc_[l].n);
    }
    return n == 0.0 ? 0.0 : raw / n;
  }
  double total_ns(Layer l) const {
    return static_cast<double>(acc_[l].raw_ns) -
           static_cast<double>(acc_[l].n) * floor_ns(worker_side(l));
  }
  std::uint64_t samples(Layer l) const { return acc_[l].n; }

  /// Mean worker handoff per miss: the client's wait less everything the
  /// worker did (its layers and their clock pairs).
  double handoff_us() const {
    const double n = static_cast<double>(acc_[kHandoff].n);
    return n == 0.0 ? 0.0 : (hop_raw_ns_ - n * floor_ns(false)) / n / 1e3;
  }

  /// Per reconciled request: the sum of its replayed layers, handoff hop
  /// included, instrument cost excluded.
  double recon_us(std::uint64_t requests) const {
    if (requests == 0) return 0.0;
    const double ns =
        recon_sum_.raw_ns - recon_sum_.client_pairs * floor_ns(false) -
        recon_sum_.worker_pairs * floor_ns(true);
    return ns / 1e3 / static_cast<double>(requests);
  }

  double floor_ns(bool worker) const {
    const Floor& f = floor_[worker ? 1 : 0];
    return f.n == 0 ? 0.0 : f.raw_ns / static_cast<double>(f.n);
  }
  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t searches() const { return searches_; }

 private:
  struct Acc {
    std::uint64_t raw_ns = 0;
    std::uint64_t n = 0;
  };
  struct Floor {
    double raw_ns = 0.0;
    std::uint64_t n = 0;
  };

  /// Times one layer call: a clock pair, plus a bench span in the traced
  /// pass (opened before and closed after the pair).
  class Timed {
   public:
    Timed(Replay& r, Layer layer, const char* span_name = nullptr)
        : r_(r), layer_(layer) {
      if (r.traced_) {
        span_.emplace(reg(), span_name ? span_name : kLayerNames[layer],
                      "bench");
      }
      t0_ = Clock::now();
    }
    ~Timed() { r_.record(layer_, ns_between(t0_, Clock::now())); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
    void relabel(Layer layer) { layer_ = layer; }

   private:
    Replay& r_;
    Layer layer_;
    std::optional<obs::Span> span_;
    Clock::time_point t0_;
  };

  void record(Layer layer, std::uint64_t ns) {
    if (traced_) return;
    acc_[layer].raw_ns += ns;
    ++acc_[layer].n;
    if (worker_side(layer)) {
      worker_raw_ns_ += ns;
      ++worker_pairs_;
    } else if (recon_) {
      recon_sum_.raw_ns += static_cast<double>(ns);
      ++recon_sum_.client_pairs;
    }
  }

  /// An empty clock pair: the instrument's own cost on this thread.
  void floor_pair(bool worker) {
    const auto t0 = Clock::now();
    const auto ns = ns_between(t0, Clock::now());
    if (traced_) return;
    floor_[worker ? 1 : 0].raw_ns += static_cast<double>(ns);
    ++floor_[worker ? 1 : 0].n;
    if (worker) {
      worker_raw_ns_ += ns;
      ++worker_pairs_;
    }
  }

  /// The service's own metering of a request: its span (disabled unless
  /// tracing is on) with `attrs` attributes, and its counters.
  void meter(Layer layer, int attrs) {
    Timed timed(*this, layer);
    obs::Span span(reg(), "bench.probe", "bench");
    requests_.add();
    if (attrs > 1) span.attr("queue_wait_us", JsonValue(1.0));
    span.attr("outcome", JsonValue("hit"));
    hits_.add();
  }

  std::shared_ptr<const svc::PartitionDecision> lookup(std::uint64_t key) {
    std::shared_ptr<const svc::PartitionDecision> hit;
    Timed timed(*this, kLookupMiss, "svc.cache.lookup");
    hit = cache_.lookup(key);
    if (hit) timed.relabel(kLookupHit);
    return hit;
  }

  /// The hit path's tail: latency histogram, then the ready-future reply,
  /// which also releases the request's availability snapshot.
  void reply(std::shared_ptr<const svc::PartitionDecision> hit,
             AvailabilitySnapshot snapshot) {
    {
      Timed timed(*this, kHitHistogram);
      hit_latency_.record(seconds_between(start_, Clock::now()) * 1e6);
    }
    Timed timed(*this, kReply);
    std::promise<svc::ServiceReply> p;
    p.set_value(
        svc::ServiceReply{svc::ServiceStatus::Ok, std::move(hit), true, {}});
    sink_ += p.get_future().share().get().cache_hit ? 1.0 : 0.0;
    const AvailabilitySnapshot released = std::move(snapshot);
  }

  /// One request, layer by layer.
  void one(const svc::PartitionRequest& request) {
    start_ = Clock::now();
    floor_pair(false);
    std::optional<obs::Span> root;
    if (traced_) root.emplace(reg(), "bench.request", "bench");
    meter(kMeter, 1);
    {
      Timed timed(*this, kValidate);
      NP_REQUIRE(svc::validate_request(request) == nullptr,
                 "replayed request fails validation");
    }
    std::pair<AvailabilitySnapshot, std::uint64_t> read;
    {
      Timed timed(*this, kFeedRead);
      read = epochs_.feed().read();
    }
    const std::uint64_t epoch = read.second;
    if (epoch > seen_) {
      if (seen_ != 0) {
        Timed timed(*this, kInvalidate);
        sink_ += static_cast<double>(cache_.invalidate_before(epoch));
      }
      seen_ = epoch;
    }
    std::uint64_t key = 0;
    {
      Timed timed(*this, kRequestKey);
      key = svc::request_key(request, t_.served->signature, epoch);
    }
    if (auto hit = lookup(key)) {
      reply(std::move(hit), std::move(read.first));
      return;
    }
    const std::uint64_t worker_before = worker_raw_ns_;
    const std::uint64_t pairs_before = worker_pairs_;
    std::optional<obs::Span> span;
    if (traced_) span.emplace(reg(), "svc.handoff", "bench");
    const obs::TraceContext context = obs::current_context();
    const auto t0 = Clock::now();
    worker_.run([&] {
      const obs::ContextScope scope(context);
      cold(request, read.first, key, epoch);
    });
    const std::uint64_t wait_ns = ns_between(t0, Clock::now());
    record(kHandoff, wait_ns);
    if (traced_) return;
    hop_raw_ns_ += static_cast<double>(wait_ns - (worker_raw_ns_ - worker_before));
    if (recon_) recon_sum_.worker_pairs += worker_pairs_ - pairs_before;
  }

  /// cold_compute's layers, on the worker thread.
  void cold(const svc::PartitionRequest& request,
            const AvailabilitySnapshot& snapshot, std::uint64_t key,
            std::uint64_t epoch) {
    floor_pair(true);
    std::optional<obs::Span> execute;
    if (traced_) execute.emplace(reg(), "bench.execute", "bench");
    meter(kColdMeter, 2);
    svc::PartitionDecision decision;
    if (request.kind == svc::PartitionRequest::Kind::Repartition) {
      Timed timed(*this, kProportional);
      const std::vector<double> rates(request.rate_milli.begin(),
                                      request.rate_milli.end());
      decision.partition = proportional_partition(rates, request.n);
    } else {
      std::optional<ComputationSpec> spec;
      {
        Timed timed(*this, kResolve);
        spec.emplace(resolve_spec(request));
      }
      std::optional<CycleEstimator> estimator;
      {
        Timed timed(*this, kEstimatorBuild);
        estimator.emplace(t_.served->net, t_.served->db, *spec);
      }
      std::optional<PartitionResult> result;
      {
        Timed timed(*this, kSearch);
        result.emplace(
            partition(*estimator, snapshot, request.options, &scratch_));
      }
      if (!traced_) {
        evaluations_ += result->evaluations;
        ++searches_;
      }
      decision.partition = std::move(result->estimate.partition);
      decision.config = std::move(result->config);
      decision.placement = std::move(result->placement);
      decision.t_c_ms = result->estimate.t_c_ms;
      decision.evaluations = result->evaluations;
    }
    std::shared_ptr<const svc::PartitionDecision> shared;
    {
      Timed timed(*this, kDecision);
      decision.key = key;
      decision.epoch = epoch;
      shared = std::make_shared<const svc::PartitionDecision>(
          std::move(decision));
    }
    {
      Timed timed(*this, kInsert);
      cache_.insert(shared);
    }
    {
      Timed timed(*this, kColdHistogram);
      cold_latency_.record(seconds_between(start_, Clock::now()) * 1e6);
    }
    if (request.kind == svc::PartitionRequest::Kind::Partition) {
      if (recent_.size() < 1024) {
        recent_.push_back(std::move(shared));
      } else {
        recent_[recent_next_++ % recent_.size()] = std::move(shared);
      }
    }
  }

  const TraceTarget& t_;
  EpochFeed epochs_;
  svc::DecisionCache cache_;
  bool revoke_ = true;
  bool recon_ = false;
  bool traced_ = false;
  std::uint64_t seen_ = 0;
  Clock::time_point start_;
  EstimatorScratch scratch_;
  obs::Counter requests_;
  obs::Counter hits_;
  obs::LatencyHistogram hit_latency_{0.0, 200.0, 400};
  obs::LatencyHistogram cold_latency_{0.0, 100000.0, 1000};

  std::array<Acc, kLayerCount> acc_{};
  std::array<Floor, 2> floor_{};  // client, worker
  std::uint64_t worker_raw_ns_ = 0;
  std::uint64_t worker_pairs_ = 0;
  double hop_raw_ns_ = 0.0;
  struct {
    double raw_ns = 0.0;
    std::uint64_t client_pairs = 0;
    std::uint64_t worker_pairs = 0;
  } recon_sum_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t searches_ = 0;
  std::vector<std::shared_ptr<const svc::PartitionDecision>> recent_;
  std::size_t recent_next_ = 0;
  double sink_ = 0.0;
  Worker worker_;  // last: joins before the state it writes goes away
};

/// What one of the service's own spans (open, one attribute, close,
/// record) costs while tracing is on, ns.
double span_cost_ns() {
  constexpr int kSpans = 20000;
  double raw = 0.0;
  double floor = 0.0;
  Tracing on;
  for (int i = 0; i < kSpans; ++i) {
    auto t0 = Clock::now();
    floor += static_cast<double>(ns_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      obs::Span s(reg(), "bench.probe", "bench");
      s.attr("outcome", JsonValue("hit"));
    }
    raw += static_cast<double>(ns_between(t0, Clock::now()));
    if (i % 4096 == 4095) reg().clear_events();
  }
  reg().clear_events();
  return (raw - floor) / kSpans;
}

// --- core probes ------------------------------------------------------------

struct CoreProbe {
  double batch_ns_per_eval = 0.0;
  double general_us = 0.0;
  double general_evals = 0.0;
  double exhaustive_ms = 0.0;
  double exhaustive_serial_ms = 0.0;
  bool exhaustive_match = true;
};

CoreProbe probe_core(const TraceTarget& t, std::uint64_t seed,
                     double budget_s) {
  CoreProbe out;
  const Network& net = t.served->net;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  EstimatorScratch scratch;

  // estimate_batch over random configurations of the workload's network.
  svc::PartitionRequest stencil_request;
  stencil_request.spec = "stencil";
  stencil_request.n = 1200;
  stencil_request.iterations = 10;
  const ComputationSpec stencil = resolve_spec(stencil_request);
  const CycleEstimator estimator(net, t.served->db, stencil);
  Rng rng = Rng(seed).stream(5);
  std::vector<ProcessorConfig> configs;
  while (configs.size() < 256) {
    ProcessorConfig c(snap.available.size(), 0);
    int total = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = static_cast<int>(rng.next_int(0, snap.available[i]));
      total += c[i];
    }
    if (total > 0) configs.push_back(std::move(c));
  }
  std::vector<FastEstimate> results(configs.size());
  estimator.estimate_batch(configs.data(), configs.size(), results.data(),
                           scratch);
  std::vector<double> windows;
  for (int w = 0; w < 9; ++w) {
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 64; ++rep) {
      estimator.estimate_batch(configs.data(), configs.size(), results.data(),
                               scratch);
    }
    windows.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                      (64.0 * static_cast<double>(configs.size())));
  }
  out.batch_ns_per_eval = median(windows);

  // general_partition on the stream's first Partition problems.
  {
    const auto deadline = after(budget_s);
    std::vector<double> us;
    double evals = 0.0;
    for (std::uint64_t r = 0; r < 4096 && us.size() < 256; ++r) {
      const svc::PartitionRequest request =
          t.stream->by_id(t.stream->merged_id(r));
      if (request.kind != svc::PartitionRequest::Kind::Partition) continue;
      const ComputationSpec spec = resolve_spec(request);
      const CycleEstimator e(net, t.served->db, spec);
      const auto t0 = Clock::now();
      const PartitionResult result = general_partition(e, snap, {}, &scratch);
      us.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
      evals += static_cast<double>(result.evaluations);
      if (Clock::now() > deadline) break;
    }
    out.general_us = mean(us);
    out.general_evals =
        us.empty() ? 0.0 : evals / static_cast<double>(us.size());
  }

  // The exhaustive sweep, serial and with 4 threads, on a 4 x 12 oracle
  // problem (28,561 configurations).
  {
    const std::unique_ptr<Served> oracle = prepare(oracle_network(0));
    const AvailabilitySnapshot osnap = gather_availability(
        oracle->net, make_managers(oracle->net, AvailabilityPolicy{}));
    const CycleEstimator e(oracle->net, oracle->db, stencil);
    std::vector<double> serial, parallel;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      const PartitionResult a = exhaustive_partition(e, osnap, {.threads = 1});
      serial.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                       1e6);
      t0 = Clock::now();
      const PartitionResult b = exhaustive_partition(e, osnap, {.threads = 4});
      parallel.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                         1e6);
      out.exhaustive_match = out.exhaustive_match && a.config == b.config;
    }
    out.exhaustive_serial_ms = median(serial);
    out.exhaustive_ms = median(parallel);
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  NP_REQUIRE(f.good(), "cannot write " + path);
  f << text;
}

}  // namespace

std::vector<Metric> run_layers(Workload& w, const RunOptions& opts,
                               double phase_s, std::uint64_t& attempted,
                               std::uint64_t& failed) {
  const auto tally = [&](const PhaseStats& p) {
    attempted += p.ok + p.failed;
    failed += p.failed;
  };
  const double warm_s = 0.10 * phase_s;
  const double closed_s = 0.25 * phase_s;
  const double open_s = 0.20 * phase_s;
  const double probe_s = 0.10 * phase_s;

  // 1. The workload itself: untraced vs traced closed loop, then open loop.
  tally(run_closed(w.clients(), warm_s, steps_of(w)));
  const TraceTarget t = w.trace_target();
  SvcCounters before = counters_of(t.rig->service());
  const PhaseStats plain = run_closed(w.clients(), closed_s, steps_of(w));
  tally(plain);
  SvcSpans svc;
  std::vector<obs::SpanRecord> keep;
  double traced_rps = 0.0;
  double svc_wall_s = 0.0;
  std::uint64_t dropped = 0;
  {
    Tracing on;
    const PhaseStats traced =
        run_closed(w.clients(), closed_s, steps_of(w), buffer_nearly_full);
    tally(traced);
    traced_rps = traced.rps();
    svc_wall_s = traced.wall_s;
    dropped = reg().dropped_records();
    keep = harvest();
    collect_svc(keep, svc);
    keep.resize(std::min(keep.size(), kTraceKeep));
  }
  SvcCounters after_ = counters_of(t.rig->service());
  const PhaseStats open =
      run_open(w.clients(), open_s, w.open_rate(), ops_of(w));
  tally(open);

  // offline_plan has no service in its own loop: drive its probe rig.
  std::vector<std::uint64_t> next;
  if (svc.execute_us.empty() && svc.hit_submit_us.empty()) {
    before = counters_of(t.rig->service());
    Tracing on;
    const PhaseStats p =
        run_closed(t.stream->clients(), probe_s, rig_ops(*t.rig, *t.stream, next),
                   buffer_nearly_full);
    tally(p);
    svc_wall_s = p.wall_s;
    collect_svc(harvest(), svc);
    after_ = counters_of(t.rig->service());
  }
  double busy_us = 0.0;
  for (double x : svc.execute_us) busy_us += x;
  // A loop with almost no hits (cold_start) or no misses (hot_zipf) gets a
  // probe: 512 fresh keys, each sent twice by 2 clients, so the first pass
  // misses and the second hits.  The keys use iterations 1 or 2; every
  // universe uses 10.
  if (svc.hit_submit_us.size() < 200 || svc.execute_us.size() < 200) {
    const RequestStream fresh = RequestStream::fresh(opts.seed + 1000, 2);
    std::vector<svc::PartitionRequest> keys;
    for (std::uint64_t k = 0; k < 512; ++k) keys.push_back(fresh.by_id(k));
    std::vector<std::vector<std::uint32_t>> order(2);
    for (std::uint32_t k = 0; k < 1024; ++k) order[k % 2].push_back(k % 512);
    const RequestStream twice(keys, order);
    std::atomic<std::uint64_t> probe_failed{0};
    SvcSpans extra;
    {
      Tracing on;
      std::vector<std::uint64_t> probe_next;
      const OpFn op = rig_ops(*t.rig, twice, probe_next);
      std::vector<std::jthread> threads;
      for (int c = 0; c < 2; ++c) {
        threads.emplace_back([&, c] {
          for (int i = 0; i < 512; ++i) {
            if (!op(c)) ++probe_failed;
          }
        });
      }
      threads.clear();
      collect_svc(harvest(), extra);
    }
    attempted += 1024;
    failed += probe_failed.load();
    if (svc.hit_submit_us.size() < 200) svc.hit_submit_us = extra.hit_submit_us;
    if (svc.execute_us.size() < 200) {
      svc.queue_wait_us = extra.queue_wait_us;
      svc.execute_us = extra.execute_us;
      svc.execute_self_us = extra.execute_self_us;
    }
  }

  // 2. Reconciliation.  A 1-client, 1-worker service and the layer replay
  //    take the stream's requests in turns of kReconTurn, so the host's
  //    drift lands on both sides alike.  Both run untraced: a span costs
  //    more than most hit-path layers.  Then the replay runs on alone for
  //    the per-layer means, and a short pass records its bench spans.
  std::uint64_t call_ns = 0;  // submit until the reply's future is released
  std::uint64_t recon_n = 0;
  std::uint64_t replayed = 0;
  std::vector<obs::SpanRecord> replay_spans;
  Replay replay(t);
  {
    ServiceRig rig(*t.served, 1, t.cache_capacity);
    rig.warm(t.warm);
    replay.warm();
    const RequestStream& s = *t.stream;
    const auto clients = static_cast<std::uint64_t>(s.clients());
    svc::PartitionRequest buf;
    bool revoke = true;
    const auto recon_end = after(probe_s);
    while (recon_n < kReconMax && Clock::now() < recon_end) {
      const std::uint64_t end = recon_n + kReconTurn;
      for (std::uint64_t r = recon_n; r < end; ++r) {
        if (t.churn_every != 0 && r != 0 && r % t.churn_every == 0) {
          rig.epochs().churn_step(revoke);
          revoke = !revoke;
        }
        const svc::PartitionRequest& request =
            s.at(static_cast<int>(r % clients), r / clients, buf);
        const auto t0 = Clock::now();
        const bool ok = rig.service().submit(request).get().status ==
                        svc::ServiceStatus::Ok;
        call_ns += ns_between(t0, Clock::now());
        ++attempted;
        if (!ok) ++failed;
      }
      replay.run(recon_n, end, true, Clock::time_point::max());
      recon_n = end;
    }
    replayed = replay.run(recon_n, std::max(kReplayMax, recon_n), false,
                          after(probe_s));
    replay.fill_in(t.stream->universe().empty()
                       ? std::vector<svc::PartitionRequest>{t.stream->by_id(0)}
                       : t.stream->universe());
    Tracing on;
    replay_spans = replay.traced(replayed, kTracedReplay);
  }
  const double e2e_us =
      recon_n == 0 ? 0.0
                   : static_cast<double>(call_ns) / 1e3 /
                         static_cast<double>(recon_n);
  const double layers_us = replay.recon_us(recon_n);
  const double unattributed_us = e2e_us - layers_us;
  const double gap_pct = e2e_us > 0.0 ? 100.0 * unattributed_us / e2e_us : 0.0;

  // 3. Probes: the obs layer's span cost and the core search entry points.
  const double span_ns = span_cost_ns();
  const CoreProbe core = probe_core(t, opts.seed, probe_s);
  if (!core.exhaustive_match) ++failed;

  // --- the per-layer metrics, in BENCHMARK.json order -----------------------
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const auto ns = [&replay](Layer l) { return replay.mean_ns(l); };
  const auto us = [&replay](Layer l) { return replay.mean_ns(l) / 1e3; };
  const double requests = static_cast<double>(
      std::max<std::uint64_t>(1, after_.requests - before.requests));
  const auto per_1k = [&](std::uint64_t a, std::uint64_t b) {
    return 1000.0 * static_cast<double>(b - a) / requests;
  };
  add("svc.validate_ns", ns(kValidate), "ns");
  add("svc.request_key_ns", ns(kRequestKey), "ns");
  add("net.feed_read_ns", ns(kFeedRead), "ns");
  add("svc.cache.lookup_hit_ns", ns(kLookupHit), "ns");
  add("svc.cache.lookup_miss_ns", ns(kLookupMiss), "ns");
  add("svc.cache.insert_ns", ns(kInsert), "ns");
  add("svc.decision_ns", ns(kDecision), "ns");
  add("svc.reply_ns", ns(kReply), "ns");
  add("obs.meter_ns", replay.mean_ns(kMeter, kColdMeter), "ns");
  add("obs.span_traced_ns", span_ns, "ns");
  add("obs.histogram_ns", replay.mean_ns(kHitHistogram, kColdHistogram), "ns");
  add("svc.submit_hit_p50_ns", quantile(svc.hit_submit_us, 0.5) * 1e3, "ns");
  add("svc.queue_wait_p50_us", quantile(svc.queue_wait_us, 0.5), "us");
  add("svc.queue_wait_p99_us", quantile(svc.queue_wait_us, 0.99), "us");
  add("svc.execute_p50_us", quantile(svc.execute_us, 0.5), "us");
  add("svc.execute_p99_us", quantile(svc.execute_us, 0.99), "us");
  add("svc.execute_self_us", mean(svc.execute_self_us), "us");
  add("svc.worker_busy_frac",
      svc_wall_s > 0 ? busy_us / 1e6 / (2.0 * svc_wall_s) : 0.0, "fraction");
  add("svc.handoff_us", replay.handoff_us(), "us");
  add("svc.unattributed_us", unattributed_us, "us");
  add("apps.resolve_us", us(kResolve), "us");
  add("core.estimator_build_us", us(kEstimatorBuild), "us");
  add("core.search_us", us(kSearch), "us");
  const double searches =
      static_cast<double>(std::max<std::uint64_t>(1, replay.searches()));
  add("core.search_evals",
      static_cast<double>(replay.evaluations()) / searches, "count");
  add("core.search_ns_per_eval",
      replay.evaluations() == 0
          ? 0.0
          : replay.total_ns(kSearch) /
                static_cast<double>(replay.evaluations()),
      "ns");
  add("dp.proportional_ns", ns(kProportional), "ns");
  add("svc.cache.invalidate_us", us(kInvalidate), "us");
  add("svc.cache.hit_ratio",
      static_cast<double>(after_.hits - before.hits) / requests, "fraction");
  add("svc.cache.evictions_per_1k", per_1k(before.evictions, after_.evictions),
      "per_1k");
  add("svc.cache.invalidated_per_1k",
      per_1k(before.invalidated, after_.invalidated), "per_1k");
  add("svc.coalesced_per_1k", per_1k(before.coalesced, after_.coalesced),
      "per_1k");
  add("svc.shed_per_1k", per_1k(before.shed, after_.shed), "per_1k");
  add("core.batch_ns_per_eval", core.batch_ns_per_eval, "ns");
  add("core.general_us", core.general_us, "us");
  add("core.general_evals", core.general_evals, "count");
  add("core.exhaustive_ms", core.exhaustive_ms, "ms");
  add("core.exhaustive_serial_ms", core.exhaustive_serial_ms, "ms");
  add("core.exhaustive_speedup",
      core.exhaustive_ms > 0 ? core.exhaustive_serial_ms / core.exhaustive_ms
                             : 0.0,
      "ratio");
  const double plain_rps = plain.rps();
  add("obs.overhead_pct",
      plain_rps > 0 ? 100.0 * (plain_rps - traced_rps) / plain_rps : 0.0,
      "pct");
  add("obs.spans_dropped", static_cast<double>(dropped), "count");
  add("gen.lag_p99_us", open.lag.quantile_ns(0.99) / 1e3, "us");
  add("open.p50_us", open.latency.quantile_ns(0.50) / 1e3, "us");
  add("open.p99_us", open.latency.quantile_ns(0.99) / 1e3, "us");
  add("closed.tail_us", plain.latency.tail_mean_ns(0.99) / 1e3, "us");
  add("reconcile.gap_pct", gap_pct, "pct");

  const bool within = std::abs(gap_pct) <= 10.0;
  std::fprintf(stderr,
               "%s reconcile: service %.3f us per request, replayed layers "
               "%.3f us over %llu requests (%llu replayed), gap %.1f %% -> "
               "%s\n",
               w.name(), e2e_us, layers_us,
               static_cast<unsigned long long>(recon_n),
               static_cast<unsigned long long>(replayed), gap_pct,
               within ? "within 10 %" : "OUTSIDE 10 %");

  if (!opts.out_dir.empty()) {
    const std::string base = opts.out_dir + "/" + w.name();
    const std::map<std::string, double> span_self = self_times_us(replay_spans);
    JsonValue layers = JsonValue::object();
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const auto layer = static_cast<Layer>(l);
      const bool is_lookup = layer == kLookupHit || layer == kLookupMiss;
      const auto it =
          span_self.find(is_lookup ? "svc.cache.lookup" : kLayerNames[l]);
      layers.set(kLayerNames[l] + std::string(worker_side(layer) ? "@worker" : ""),
                 JsonValue::object()
                     .set("clock_us", replay.mean_ns(layer) / 1e3)
                     .set("samples", replay.samples(layer))
                     .set("span_self_us",
                          it == span_self.end() ? 0.0 : it->second));
    }
    JsonValue metrics = JsonValue::object();
    for (const Metric& x : m) {
      metrics.set(x.name,
                  JsonValue::object().set("value", x.value).set("unit", x.unit));
    }
    write_file(base + ".layers.json",
               JsonValue::object()
                   .set("workload", w.name())
                   .set("seed", opts.seed)
                   .set("metrics", std::move(metrics))
                   .set("replay", std::move(layers))
                   .set("reconcile",
                        JsonValue::object()
                            .set("requests", recon_n)
                            .set("service_us", e2e_us)
                            .set("layers_us", layers_us)
                            .set("clock_floor_ns", replay.floor_ns(false))
                            .set("bump_every", t.churn_every)
                            .set("within_10pct", within))
                   .dump(2));
    obs::TelemetryRegistry out(true);
    out.set_record_capacity(keep.size() + replay_spans.size() + 1);
    for (auto& s : keep) out.record_span(std::move(s));
    for (auto& s : replay_spans) out.record_span(std::move(s));
    std::ofstream f(base + ".trace.json");
    NP_REQUIRE(f.good(), "cannot write the trace file");
    obs::write_chrome_trace(f, out);
  }
  return m;
}

}  // namespace netpart::e2e
