// The end-to-end benchmark: workloads, load phases and the traced layer run.
//
// One process drives one workload.  Service workloads send generated
// PartitionRequests through a real svc::PartitionService (2 workers, 2
// client threads; on churn_mixed client 0 also bumps the availability
// epoch every so many requests); offline_plan calls
// the core search entry points directly from two planner threads.  The
// program under test sees only the generated requests; everything else here
// -- timing, histograms, sampling, the correctness oracle -- is bench code.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "calib/cost_model.hpp"
#include "dp/phases.hpp"
#include "hist.hpp"
#include "net/availability.hpp"
#include "net/network.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace netpart::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Phases of about a second and few set-ups: a fast end-to-end check of
  /// the plumbing.
  bool smoke = false;
  /// When set, <dir>/<workload>.json (and in trace mode .layers.json and
  /// .trace.json) are written there.
  std::string out_dir;
};

/// The resolver the service is constructed with: the five paper apps by
/// name, as the netpartd daemon resolves them.
ComputationSpec resolve_spec(const svc::PartitionRequest& request);
/// "stencil", "sten2", "gauss", "particles", "reduce".
const std::vector<std::string>& spec_names();

/// A network made ready to serve: calibrated for every topology and passed
/// through the pre-flight gate, with the time each step took.
struct Served {
  Network net;
  CostModelDb db;
  std::uint64_t signature = 0;
  double calibrate_ms = 0.0;
  double preflight_ms = 0.0;
};
std::unique_ptr<Served> prepare(Network net);

/// Clusters of the given sizes on presets::random_network's Ethernet, each
/// with a machine model drawn from `rng` over that preset's ranges.
Network seeded_network(Rng rng, const std::vector<int>& sizes);
/// The k-th oracle network: 4 clusters of exactly 12 processors, so the
/// exhaustive space is always 13^4 = 28,561 configurations.  Its machine
/// models come from a fixed seed, the same for every --seed, so the T_c
/// quality check measured on these networks is one number per commit.
Network oracle_network(std::size_t k);

/// Zipf(s) over ranks 0..k-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(int k, double s);
  std::uint32_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Evenly spread, fixed-capacity sample of a stream of unknown length:
/// every stride-th item is kept, and when the buffer fills every other kept
/// item is dropped and the stride doubles.  Allocation-free after
/// construction (apart from copying T).
template <typename T>
class Decimator {
 public:
  explicit Decimator(std::size_t capacity) : capacity_(capacity) {
    items_.reserve(capacity);
  }
  bool want() { return seen_++ % stride_ == 0; }
  void add(T item) {
    items_.push_back(std::move(item));
    if (items_.size() < capacity_) return;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < items_.size(); i += 2, ++kept) {
      if (kept != i) items_[kept] = std::move(items_[i]);
    }
    items_.resize(kept);
    stride_ *= 2;
  }
  const std::vector<T>& items() const { return items_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  std::vector<T> items_;
};

/// The requests each client sends.  Universe streams replay per-client
/// index sequences into a fixed request universe; the fresh stream
/// (cold_start) makes a distinct cache key for every (client, i).
class RequestStream {
 public:
  RequestStream(std::vector<svc::PartitionRequest> universe,
                std::vector<std::vector<std::uint32_t>> order);
  static RequestStream fresh(std::uint64_t seed, int clients);

  int clients() const { return clients_; }
  /// Client `client`'s i-th request; `buf` backs generated requests.
  const svc::PartitionRequest& at(int client, std::uint64_t i,
                                  svc::PartitionRequest& buf) const;
  /// Stable identity of that request (universe index or key number).
  std::uint64_t id(int client, std::uint64_t i) const;
  svc::PartitionRequest by_id(std::uint64_t id) const;
  /// The r-th request of the clients' streams interleaved round-robin --
  /// the order the layer replay walks.
  std::uint64_t merged_id(std::uint64_t r) const {
    return id(static_cast<int>(r % static_cast<std::uint64_t>(clients_)),
              r / static_cast<std::uint64_t>(clients_));
  }
  const std::vector<svc::PartitionRequest>& universe() const {
    return universe_;
  }

 private:
  RequestStream() = default;
  static svc::PartitionRequest fresh_request(std::uint64_t key,
                                             std::uint64_t offset);

  int clients_ = 0;
  std::vector<svc::PartitionRequest> universe_;
  std::vector<std::vector<std::uint32_t>> order_;
  bool fresh_ = false;
  std::uint64_t offset_ = 0;
};

/// An availability feed over a network, starting idle, with a record of the
/// snapshot behind every epoch it has published.
class EpochFeed {
 public:
  explicit EpochFeed(const Network& net);

  AvailabilityFeed& feed() { return feed_; }
  /// Availability churn: withdraw (or give back) one processor of the
  /// widest cluster.  Bumps the epoch; returns the new epoch.
  std::uint64_t churn_step(bool revoke);
  AvailabilitySnapshot snapshot_at(std::uint64_t epoch) const;
  bool has_epoch(std::uint64_t epoch) const;

 private:
  AvailabilityFeed feed_;
  AvailabilitySnapshot base_;
  std::size_t widest_ = 0;
  mutable std::mutex epochs_mutex_;
  std::map<std::uint64_t, AvailabilitySnapshot> epochs_;
};

/// A PartitionService over one Served network (which must outlive the rig)
/// and the EpochFeed it reads.
class ServiceRig {
 public:
  ServiceRig(const Served& served, int workers, std::size_t cache_capacity);

  svc::PartitionService& service() { return service_; }
  EpochFeed& epochs() { return epochs_; }
  /// Query every request in `warm` once (set-up cache warming).
  void warm(const std::vector<svc::PartitionRequest>& warm);

 private:
  EpochFeed epochs_;
  svc::PartitionService service_;  // last: its workers join first
};

/// Correctness-gate outcome.
struct Verdict {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  /// Sum of served T_c over sum of recomputed T_c (service workloads:
  /// exactly 1 when every sampled decision matches); offline_plan: general
  /// over exhaustive on the fixed oracle problem set.
  double tc_ratio = 1.0;
  std::string first_error;
};

struct SetupTimes {
  double total_s = 0.0;
  double calibrate_ms = 0.0;
  double preflight_ms = 0.0;
};

/// What the traced layer run drives: a service rig, the stream it serves,
/// and the requests its set-up warmed.
struct TraceTarget {
  const Served* served = nullptr;
  ServiceRig* rig = nullptr;
  const RequestStream* stream = nullptr;
  std::vector<svc::PartitionRequest> warm;
  std::size_t cache_capacity = 1024;
  /// Epoch bump every this many requests of the merged stream (0: none).
  std::uint64_t churn_every = 0;
};

/// A reply as a closed-loop client takes it in: when its request was sent,
/// and whether it succeeded.
struct Outcome {
  Clock::time_point sent;
  bool ok;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int clients() const = 0;
  /// Open-loop offered rate, requests (jobs) per second over all clients.
  virtual double open_rate() const = 0;
  /// One complete request on thread `client`.  False when it failed, was
  /// refused, or (offline_plan) broke an oracle ordering.
  virtual bool op(int client) = 0;
  /// One closed-loop step on thread `client`: send the next request and
  /// append to `done` every reply that is in.  With `drain`, send nothing
  /// and wait for every reply still outstanding.  By default a step is one
  /// complete op(); a service client keeps several requests outstanding.
  virtual void step(int client, bool drain, std::vector<Outcome>& done) {
    if (drain) return;
    const Clock::time_point sent = Clock::now();
    done.push_back({sent, op(client)});
  }
  /// Set-up: build and prepare everything the workload serves from, timed
  /// from the first step to ready.  With `keep` the result becomes the
  /// system under test; otherwise it is thrown away once timed (set-ups
  /// are repeated through a run so their median samples the host's state
  /// at several moments).
  virtual SetupTimes setup(bool keep) = 0;
  virtual Verdict verify() = 0;
  virtual TraceTarget trace_target() = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// --- load phases ----------------------------------------------------------

struct PhaseStats {
  LogHistogram latency;  ///< closed: from send; open: from the due time
  LogHistogram lag;      ///< open loop: how late each send left
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU, all threads

  double rps() const { return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0; }
  double cpu_us_per_op() const {
    return cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, ok));
  }
  /// Fold a later stretch of the same phase in.
  void append(const PhaseStats& other);
};

/// One complete request on client thread `client`; false when it failed.
using OpFn = std::function<bool(int client)>;
/// One closed-loop step (see Workload::step).
using StepFn =
    std::function<void(int client, bool drain, std::vector<Outcome>& done)>;

/// Every client sends its next request as soon as a reply frees a slot in
/// its window of outstanding requests; each request is timed from its send
/// until its client takes the reply in.  `stop` (optional) is polled every
/// 1024 steps per client.
PhaseStats run_closed(int clients, double seconds, const StepFn& step,
                      const std::function<bool()>& stop = {});
/// The same with one request outstanding per client.
PhaseStats run_closed(int clients, double seconds, const OpFn& op,
                      const std::function<bool()>& stop = {});
/// Requests fall due at a fixed total `rate`, split across the clients;
/// each is timed from its due time.
PhaseStats run_open(int clients, double seconds, double rate, const OpFn& op);

inline OpFn ops_of(Workload& w) {
  return [&w](int client) { return w.op(client); };
}
inline StepFn steps_of(Workload& w) {
  return [&w](int client, bool drain, std::vector<Outcome>& done) {
    w.step(client, drain, done);
  };
}

// --- host-speed probes ------------------------------------------------------
//
// Fixed work in bench code, timed on the calling thread while no load runs:
// the median of nine timings, microseconds.  A shared host's speed drifts
// by up to 1.7x over seconds to minutes, and the untraced run scales its
// timings by these probes (see main.cpp).

/// Dependent loads over a 128 KiB table: the speed of a core's own caches,
/// where the load loops do their work.
double cache_probe_us();
/// Four hash maps of 2,000 entries built through the global allocator and
/// freed: allocation and first-touch page faults, the bulk of a set-up.
double alloc_probe_us();

// --- traced layer run -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The traced run: per-layer metrics for BENCHMARK.json's per_layer list.
/// `phase_s` scales its phases.  Writes <out>/<workload>.layers.json and
/// .trace.json when opts.out_dir is set.
std::vector<Metric> run_layers(Workload& w, const RunOptions& opts,
                               double phase_s, std::uint64_t& attempted,
                               std::uint64_t& failed);

double median(std::vector<double> v);
/// The q-quantile of `v`, interpolated between order statistics.
double quantile(std::vector<double> v, double q);

}  // namespace netpart::e2e
