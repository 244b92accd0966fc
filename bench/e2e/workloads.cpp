// Workload generators, set-up, and the correctness oracle.
#include <algorithm>
#include <bit>
#include <cmath>

#include "analysis/preflight.hpp"
#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/reduce.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/estimator.hpp"
#include "core/general.hpp"
#include "core/partitioner.hpp"
#include "e2e.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "svc/request.hpp"
#include "util/error.hpp"

namespace netpart::e2e {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Per-client pre-generated index sequence; streams cycle through it.
constexpr std::size_t kOrderLength = std::size_t{1} << 20;
/// Problem sizes are drawn from [kMinN, kMinN + kNSpan): above the largest
/// network's processor count (128), inside the estimator's direct-table
/// range for every spec.
constexpr std::int64_t kMinN = 200;
constexpr std::uint64_t kNSpan = 3800;
/// Coprime with kNSpan: i -> (i * kStride) mod kNSpan is a permutation.
constexpr std::uint64_t kStride = 7919;
constexpr std::size_t kVerifyMax = 2000;
/// offline_plan's networks -- pool and oracle -- draw their machine models
/// from this fixed seed: --seed varies the jobs, not the machine room.
constexpr std::uint64_t kNetworkSeed = 11;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

AvailabilitySnapshot idle_snapshot(const Network& net) {
  return gather_availability(net, make_managers(net, AvailabilityPolicy{}));
}

svc::ServiceOptions options(int workers, std::size_t cache_capacity) {
  svc::ServiceOptions o;
  o.workers = workers;
  o.cache_capacity = cache_capacity;
  return o;
}

/// The service workloads' network: presets::random_network with seed 7,
/// 8 clusters of at most 16 processors.  Fixed across seeds: the seed
/// varies the requests, not the machine room.
Network service_network() {
  Rng rng(7);
  return presets::random_network(rng, 8, 16);
}

svc::PartitionRequest partition_request(std::size_t spec, std::int64_t n,
                                        std::int32_t iterations) {
  svc::PartitionRequest r;
  r.spec = spec_names()[spec % spec_names().size()];
  r.n = n;
  r.iterations = iterations;
  return r;
}

/// n for universe rank r under a seed offset: distinct for r < kNSpan.
std::int64_t universe_n(std::uint64_t r, std::uint64_t offset) {
  return kMinN + static_cast<std::int64_t>((r * kStride + offset) % kNSpan);
}

/// A Repartition request shaped as AdaptiveServiceClient builds it:
/// per-rank observed rates quantised so the fastest rank reads 1000.
svc::PartitionRequest repartition_request(Rng& rng, std::uint64_t r) {
  svc::PartitionRequest req;
  req.kind = svc::PartitionRequest::Kind::Repartition;
  req.spec = "job" + std::to_string(r % 8);
  const int ranks = static_cast<int>(rng.next_int(4, 16));
  std::vector<double> rates(static_cast<std::size_t>(ranks));
  double max_rate = 0.0;
  for (double& x : rates) {
    x = 0.3 + 0.7 * rng.next_double();
    max_rate = std::max(max_rate, x);
  }
  for (double x : rates) {
    req.rate_milli.push_back(std::max<std::int32_t>(
        1, static_cast<std::int32_t>(std::lround(x / max_rate * 1000.0))));
  }
  req.n = 1000 + static_cast<std::int64_t>(rng.next_int(0, 9000));
  return req;
}

// --- service workloads ----------------------------------------------------

struct ServiceParams {
  const char* name;
  double open_rate;
  /// Availability churn: client 0 bumps the epoch before every
  /// churn_every-th request it sends (0: no churn).  Counted in requests,
  /// not time, so each epoch serves the same requests however fast the
  /// host runs.
  std::uint64_t churn_every;
  /// Universe ranks warmed at set-up (0: none).
  std::size_t warm;
};

struct Sample {
  std::uint64_t id;
  std::shared_ptr<const svc::PartitionDecision> decision;
};

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(ServiceParams params, RequestStream stream)
      : params_(params), stream_(std::move(stream)) {
    for (auto& c : clients_) c = std::make_unique<Client>();
  }

  const char* name() const override { return params_.name; }
  int clients() const override { return kClients; }
  double open_rate() const override { return params_.open_rate; }

  SetupTimes setup(bool keep) override {
    const auto t0 = Clock::now();
    std::unique_ptr<Served> served = prepare(service_network());
    auto rig = std::make_unique<ServiceRig>(*served, kWorkers, kCacheCapacity);
    rig->warm(warm_requests());
    const SetupTimes times{seconds_between(t0, Clock::now()),
                           served->calibrate_ms, served->preflight_ms};
    if (keep) {
      rig_.reset();
      served_ = std::move(served);
      rig_ = std::move(rig);
    }
    return times;
  }

  bool op(int client) override {
    Client& c = *clients_[static_cast<std::size_t>(client)];
    const std::uint64_t i = next(client, c);
    const svc::PartitionRequest& request = stream_.at(client, i, c.buf);
    return take(c, stream_.id(client, i), rig_->service().submit(request));
  }

  /// Replies that are ready when submit returns (cache hits) are taken at
  /// once; the others wait in the client's window, oldest first, and the
  /// client blocks only when the window is full.  The workers then always
  /// have queued work, so a cold request's cost is its compute and queueing
  /// rather than how fast an idle thread wakes on a shared host.
  void step(int client, bool drain, std::vector<Outcome>& done) override {
    Client& c = *clients_[static_cast<std::size_t>(client)];
    if (!drain) {
      const std::uint64_t i = next(client, c);
      const svc::PartitionRequest& request = stream_.at(client, i, c.buf);
      const Clock::time_point sent = Clock::now();
      std::shared_future<svc::ServiceReply> future =
          rig_->service().submit(request);
      if (is_ready(future)) {
        done.push_back({sent, take(c, stream_.id(client, i), future)});
      } else {
        c.window[(c.head + c.waiting) % kWindow] = {sent, stream_.id(client, i),
                                                    std::move(future)};
        ++c.waiting;
      }
    }
    while (c.waiting > 0) {
      Pending& p = c.window[c.head];
      if (!drain && c.waiting < kWindow && !is_ready(p.future)) break;
      done.push_back({p.sent, take(c, p.id, p.future)});
      p.future = {};
      c.head = (c.head + 1) % kWindow;
      --c.waiting;
    }
  }

  Verdict verify() override;

  TraceTarget trace_target() override {
    return TraceTarget{served_.get(), rig_.get(), &stream_, warm_requests(),
                       kCacheCapacity, params_.churn_every * kClients};
  }

 private:
  static constexpr std::size_t kCacheCapacity = 1024;
  /// Outstanding cold requests per client.  Both clients' windows together
  /// stay under the service's admission queue (64), so nothing is shed,
  /// and hold about 300 us of cold work for the two workers: longer than a
  /// blocked client takes to wake on a shared host (with 8 per client the
  /// workers ran dry in slow spells).
  static constexpr std::size_t kWindow = 24;

  struct Pending {
    Clock::time_point sent;
    std::uint64_t id = 0;
    std::shared_future<svc::ServiceReply> future;
  };

  struct alignas(64) Client {
    std::uint64_t next = 0;
    svc::PartitionRequest buf;
    Decimator<Sample> samples{1024};
    std::array<Pending, kWindow> window;
    std::size_t head = 0;
    std::size_t waiting = 0;
  };

  /// The index of the client's next request; client 0 churns first when
  /// one is due.
  std::uint64_t next(int client, Client& c) {
    const std::uint64_t i = c.next++;
    if (client == 0 && params_.churn_every != 0 && i != 0 &&
        i % params_.churn_every == 0) {
      rig_->epochs().churn_step(revoke_);
      revoke_ = !revoke_;
    }
    return i;
  }

  static bool is_ready(const std::shared_future<svc::ServiceReply>& f) {
    return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  /// Wait for a reply and sample it for the correctness check.
  static bool take(Client& c, std::uint64_t id,
                   const std::shared_future<svc::ServiceReply>& future) {
    const svc::ServiceReply& reply = future.get();
    if (reply.status != svc::ServiceStatus::Ok) return false;
    if (c.samples.want()) c.samples.add({id, reply.decision});
    return true;
  }

  std::vector<svc::PartitionRequest> warm_requests() const {
    const auto& u = stream_.universe();
    return {u.begin(),
            u.begin() + static_cast<std::ptrdiff_t>(
                            std::min(params_.warm, u.size()))};
  }

  ServiceParams params_;
  RequestStream stream_;
  std::unique_ptr<Served> served_;
  std::unique_ptr<ServiceRig> rig_;
  std::array<std::unique_ptr<Client>, kClients> clients_;
  bool revoke_ = true;  // client 0's next churn step
};

Verdict ServiceWorkload::verify() {
  // Distinct (key, epoch) pairs -- the epoch is folded into the key.
  std::map<std::uint64_t, const Sample*> distinct;
  for (const auto& c : clients_) {
    for (const Sample& s : c->samples.items()) {
      if (distinct.size() >= kVerifyMax) break;
      distinct.emplace(s.decision->key, &s);
    }
  }
  Verdict v;
  double served_sum = 0.0;
  double ref_sum = 0.0;
  EstimatorScratch scratch;
  const auto fail = [&v](const std::string& what) {
    ++v.mismatches;
    if (v.first_error.empty()) v.first_error = what;
  };
  for (const auto& [key, sample] : distinct) {
    ++v.checked;
    const svc::PartitionDecision& d = *sample->decision;
    const svc::PartitionRequest request = stream_.by_id(sample->id);
    if (!rig_->epochs().has_epoch(d.epoch) ||
        svc::request_key(request, served_->signature, d.epoch) != key) {
      fail("decision answers another request or an unknown epoch");
      continue;
    }
    if (request.kind == svc::PartitionRequest::Kind::Repartition) {
      std::vector<double> rates(request.rate_milli.begin(),
                                request.rate_milli.end());
      if (proportional_partition(rates, request.n).values() !=
          d.partition.values()) {
        fail("repartition differs from proportional_partition");
      }
      continue;
    }
    const ComputationSpec spec = resolve_spec(request);
    const CycleEstimator estimator(served_->net, served_->db, spec);
    const PartitionResult ref = partition(
        estimator, rig_->epochs().snapshot_at(d.epoch), request.options,
        &scratch);
    served_sum += d.t_c_ms;
    ref_sum += ref.estimate.t_c_ms;
    if (ref.config != d.config || !same_bits(ref.estimate.t_c_ms, d.t_c_ms)) {
      fail("served decision differs from a direct partition() call");
    }
  }
  v.tc_ratio = ref_sum > 0.0 ? served_sum / ref_sum : 1.0;
  return v;
}

// --- offline_plan -----------------------------------------------------------

/// Cluster sizes of offline_plan's k-th pool network: 4..10 clusters (k
/// mod 7) of 2..16 processors in a fixed pattern.  With
/// presets::random_network's random sizes the median job's cost differed
/// by up to 1.5x between seeds.
std::vector<int> pool_shape(std::size_t k) {
  std::vector<int> sizes(4 + k % 7);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = 2 + static_cast<int>((5 * k + 7 * i) % 15);
  }
  return sizes;
}

class OfflineWorkload final : public Workload {
 public:
  explicit OfflineWorkload(std::uint64_t seed) {
    for (auto& p : planners_) p = std::make_unique<Planner>();
    Rng rng = Rng(seed).stream(3);
    jobs_.reserve(kJobs);
    for (std::size_t j = 0; j < kJobs; ++j) {
      Job job;
      job.oracle = j % kOracleEvery == kOracleEvery - 1;
      job.problem = static_cast<std::size_t>(
          rng.next_int(0, job.oracle ? kOracleNets - 1 : kPoolNets - 1));
      job.request = partition_request(
          static_cast<std::size_t>(rng.next_int(0, 4)),
          kMinN + rng.next_int(0, static_cast<std::int64_t>(kNSpan) - 1), 10);
      jobs_.push_back(std::move(job));
    }
  }

  const char* name() const override { return "offline_plan"; }
  int clients() const override { return kPlanners; }
  double open_rate() const override { return kOpenRate; }

  SetupTimes setup(bool keep) override {
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<Served>> pool;
    std::vector<std::unique_ptr<Served>> oracle;
    for (std::size_t k = 0; k < kPoolNets; ++k) {
      pool.push_back(prepare(
          seeded_network(Rng(kNetworkSeed).stream(100 + k), pool_shape(k))));
    }
    for (std::size_t k = 0; k < kOracleNets; ++k) {
      oracle.push_back(prepare(oracle_network(k)));
    }
    std::vector<AvailabilitySnapshot> snapshots;
    for (const auto& s : pool) snapshots.push_back(idle_snapshot(s->net));
    for (const auto& s : oracle) snapshots.push_back(idle_snapshot(s->net));
    SetupTimes times{seconds_between(t0, Clock::now()), 0.0, 0.0};
    for (const auto* nets : {&pool, &oracle}) {
      for (const auto& s : *nets) {
        times.calibrate_ms += s->calibrate_ms;
        times.preflight_ms += s->preflight_ms;
      }
    }
    if (keep) {
      probe_rig_.reset();
      pool_ = std::move(pool);
      oracle_ = std::move(oracle);
      snapshots_ = std::move(snapshots);
    }
    return times;
  }

  /// Planner c takes jobs c, c + kPlanners, c + 2 kPlanners, ... of the
  /// job list, so together the planners walk it in order.
  bool op(int client) override {
    Planner& p = *planners_[static_cast<std::size_t>(client)];
    const std::uint64_t i =
        p.next++ * kPlanners + static_cast<std::uint64_t>(client);
    const Job& job = jobs_[i % jobs_.size()];
    try {
      const ComputationSpec spec = resolve_spec(job.request);
      if (job.oracle) return run_oracle(p, job, spec);
      const Served& s = *pool_[job.problem];
      const CycleEstimator estimator(s.net, s.db, spec);
      const PartitionResult r = general_partition(
          estimator, snapshots_[job.problem], {}, &p.scratch);
      if (p.samples.want()) {
        p.samples.add({i, r.estimate.t_c_ms, r.config});
      }
      return true;
    } catch (const std::exception& e) {
      note_error(e.what());
      return false;
    }
  }

  Verdict verify() override {
    Verdict v;
    v.mismatches = oracle_violations_;
    v.first_error = first_error_;
    EstimatorScratch scratch;
    std::vector<GeneralSample> samples;
    for (const auto& p : planners_) {
      samples.insert(samples.end(), p->samples.items().begin(),
                     p->samples.items().end());
    }
    for (const GeneralSample& s : samples) {
      if (v.checked >= kVerifyMax) break;
      ++v.checked;
      const Job& job = jobs_[s.job % jobs_.size()];
      const ComputationSpec spec = resolve_spec(job.request);
      const Served& served = *pool_[job.problem];
      const CycleEstimator estimator(served.net, served.db, spec);
      const PartitionResult r = general_partition(
          estimator, snapshots_[job.problem], {}, &scratch);
      if (r.config != s.config || !same_bits(r.estimate.t_c_ms, s.t_c_ms)) {
        ++v.mismatches;
        if (v.first_error.empty()) {
          v.first_error = "general_partition is not deterministic";
        }
      }
    }
    // T_c quality on a fixed problem set (every oracle network x every
    // spec x two sizes), the same for every seed and independent of how
    // many oracle jobs the timed phases reached.
    double general_sum = 0.0;
    double exhaustive_sum = 0.0;
    for (std::size_t k = 0; k < kOracleNets; ++k) {
      for (std::size_t p = 0; p < 2 * spec_names().size(); ++p) {
        const svc::PartitionRequest request =
            partition_request(p, universe_n(k * 10 + p, 0), 10);
        const ComputationSpec spec = resolve_spec(request);
        const CycleEstimator estimator(oracle_[k]->net, oracle_[k]->db, spec);
        const AvailabilitySnapshot& snap = snapshots_[kPoolNets + k];
        general_sum +=
            general_partition(estimator, snap, {}, &scratch).estimate.t_c_ms;
        exhaustive_sum += exhaustive_partition(estimator, snap, {.threads = 4})
                              .estimate.t_c_ms;
      }
    }
    v.tc_ratio = general_sum / exhaustive_sum;
    return v;
  }

  TraceTarget trace_target() override {
    // offline_plan has no service of its own.  The service-layer rows are
    // measured by serving its job stream's (spec, n) pairs on the first
    // pool network, so every workload reports every per-layer row.
    if (!probe_stream_) {
      std::vector<svc::PartitionRequest> universe;
      std::vector<std::vector<std::uint32_t>> order(kClients);
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        universe.push_back(jobs_[j].request);
        order[j % kClients].push_back(static_cast<std::uint32_t>(j));
      }
      probe_stream_ = std::make_unique<RequestStream>(std::move(universe),
                                                      std::move(order));
    }
    if (!probe_rig_) {
      probe_rig_ = std::make_unique<ServiceRig>(*pool_[0], kWorkers, 1024);
    }
    return TraceTarget{pool_[0].get(), probe_rig_.get(), probe_stream_.get(),
                       {}, 1024, false};
  }

 private:
  static constexpr std::size_t kJobs = 4096;
  static constexpr std::size_t kOracleEvery = 50;
  static constexpr std::size_t kPoolNets = 14;
  static constexpr std::size_t kOracleNets = 4;
  static constexpr double kOpenRate = 500.0;
  /// Planning threads, as many as the service workloads' clients.  A
  /// single thread runs at whatever speed its vCPU has at that moment, and
  /// on a shared host that swung by up to 1.5x between runs; two threads
  /// average over two vCPUs (IQR of ten seeded runs 16 % -> 12 %).
  static constexpr int kPlanners = kClients;

  struct Job {
    bool oracle = false;
    std::size_t problem = 0;
    svc::PartitionRequest request;
  };
  struct GeneralSample {
    std::uint64_t job;
    double t_c_ms;
    ProcessorConfig config;
  };
  struct alignas(64) Planner {
    EstimatorScratch scratch;
    std::uint64_t next = 0;
    Decimator<GeneralSample> samples{512};
  };

  /// exhaustive <= general <= the locality heuristic, on one oracle problem.
  /// The sweep runs on this thread alone: a 4-thread sweep's time depends
  /// on how many vCPUs a shared host grants at that moment (its speed-up is
  /// the per-layer core.exhaustive_speedup).
  bool run_oracle(Planner& p, const Job& job, const ComputationSpec& spec) {
    const Served& s = *oracle_[job.problem];
    const AvailabilitySnapshot& snap = snapshots_[kPoolNets + job.problem];
    const CycleEstimator estimator(s.net, s.db, spec);
    const double exhaustive =
        exhaustive_partition(estimator, snap, {.threads = 1}).estimate.t_c_ms;
    const double general =
        general_partition(estimator, snap, {}, &p.scratch).estimate.t_c_ms;
    const double heuristic =
        partition(estimator, snap, {}, &p.scratch).estimate.t_c_ms;
    if (exhaustive <= general && general <= heuristic) return true;
    ++oracle_violations_;
    note_error("oracle ordering exhaustive <= general <= heuristic broken");
    return false;
  }

  void note_error(const char* what) {
    std::lock_guard lock(error_mutex_);
    if (first_error_.empty()) first_error_ = what;
  }

  std::vector<Job> jobs_;
  std::vector<std::unique_ptr<Served>> pool_;
  std::vector<std::unique_ptr<Served>> oracle_;
  std::vector<AvailabilitySnapshot> snapshots_;
  std::array<std::unique_ptr<Planner>, kPlanners> planners_;
  std::atomic<std::uint64_t> oracle_violations_{0};
  std::mutex error_mutex_;
  std::string first_error_;

  std::unique_ptr<RequestStream> probe_stream_;
  std::unique_ptr<ServiceRig> probe_rig_;
};

/// Per-client zipf index sequences over `ranks`.
std::vector<std::vector<std::uint32_t>> zipf_order(std::uint64_t seed,
                                                   std::uint32_t ranks) {
  const ZipfSampler zipf(static_cast<int>(ranks), 1.1);
  std::vector<std::vector<std::uint32_t>> order(kClients);
  for (int c = 0; c < kClients; ++c) {
    Rng rng = Rng(seed).stream(10 + static_cast<std::uint64_t>(c));
    auto& o = order[static_cast<std::size_t>(c)];
    o.resize(kOrderLength);
    for (std::uint32_t& x : o) x = zipf.draw(rng);
  }
  return order;
}

}  // namespace

// --- shared pieces ----------------------------------------------------------

const std::vector<std::string>& spec_names() {
  static const std::vector<std::string> names = {"stencil", "sten2", "gauss",
                                                 "particles", "reduce"};
  return names;
}

ComputationSpec resolve_spec(const svc::PartitionRequest& request) {
  const int n = static_cast<int>(request.n);
  const int iterations = request.iterations;
  if (request.spec == "stencil" || request.spec == "sten2") {
    return apps::make_stencil_spec(apps::StencilConfig{
        .n = n, .iterations = iterations, .overlap = request.spec == "sten2"});
  }
  if (request.spec == "gauss") {
    return apps::make_gauss_spec(apps::GaussConfig{.n = n});
  }
  if (request.spec == "particles") {
    return apps::make_particle_spec(
        apps::ParticleConfig{.count = n, .iterations = iterations});
  }
  if (request.spec == "reduce") {
    return apps::make_reduce_spec(
        apps::ReduceConfig{.count = n, .iterations = iterations});
  }
  throw InvalidArgument("e2e: unknown spec " + request.spec);
}

std::unique_ptr<Served> prepare(Network net) {
  const auto t0 = Clock::now();
  CostModelDb db = calibrate(net).db;
  const auto t1 = Clock::now();
  analysis::require_preflight(net, db);
  const auto t2 = Clock::now();
  const std::uint64_t signature = svc::network_signature(net);
  return std::make_unique<Served>(Served{std::move(net), std::move(db),
                                         signature, ms_between(t0, t1),
                                         ms_between(t1, t2)});
}

ZipfSampler::ZipfSampler(int k, double s) : cdf_(static_cast<std::size_t>(k)) {
  double total = 0.0;
  for (int i = 0; i < k; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<std::size_t>(i)] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t ZipfSampler::draw(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

RequestStream::RequestStream(std::vector<svc::PartitionRequest> universe,
                             std::vector<std::vector<std::uint32_t>> order)
    : clients_(static_cast<int>(order.size())),
      universe_(std::move(universe)),
      order_(std::move(order)) {}

RequestStream RequestStream::fresh(std::uint64_t seed, int clients) {
  RequestStream s;
  s.clients_ = clients;
  s.fresh_ = true;
  s.offset_ = Rng(seed).stream(1).next_u64() % kNSpan;
  return s;
}

svc::PartitionRequest RequestStream::fresh_request(std::uint64_t key,
                                                   std::uint64_t offset) {
  // Key k -> spec k mod 5, then q = k / 5 walks (n, iterations) pairs
  // without repeating: n permutes kNSpan sizes, iterations counts passes.
  const std::uint64_t q = key / spec_names().size() + offset;
  return partition_request(
      static_cast<std::size_t>(key % spec_names().size()),
      universe_n(q % kNSpan, 0),
      static_cast<std::int32_t>(1 + q / kNSpan));
}

const svc::PartitionRequest& RequestStream::at(
    int client, std::uint64_t i, svc::PartitionRequest& buf) const {
  if (!fresh_) return universe_[id(client, i)];
  const std::uint64_t key = id(client, i);
  const svc::PartitionRequest r = fresh_request(key, offset_);
  buf.spec = r.spec;
  buf.n = r.n;
  buf.iterations = r.iterations;
  return buf;
}

std::uint64_t RequestStream::id(int client, std::uint64_t i) const {
  if (fresh_) {
    return i * static_cast<std::uint64_t>(clients_) +
           static_cast<std::uint64_t>(client);
  }
  const auto& o = order_[static_cast<std::size_t>(client)];
  return o[i % o.size()];
}

svc::PartitionRequest RequestStream::by_id(std::uint64_t id) const {
  return fresh_ ? fresh_request(id, offset_) : universe_[id];
}

EpochFeed::EpochFeed(const Network& net)
    : feed_(idle_snapshot(net)), base_(feed_.read().first) {
  widest_ = static_cast<std::size_t>(
      std::max_element(base_.available.begin(), base_.available.end()) -
      base_.available.begin());
  epochs_.emplace(feed_.epoch(), base_);
}

std::uint64_t EpochFeed::churn_step(bool revoke) {
  AvailabilitySnapshot next = base_;
  if (revoke) next.available[widest_] -= 1;
  // The snapshot is recorded before the feed can hand it to a reader.
  std::lock_guard lock(epochs_mutex_);
  const std::uint64_t epoch = feed_.epoch() + 1;
  epochs_.emplace(epoch, next);
  NP_REQUIRE(feed_.update(std::move(next)) == epoch,
             "availability feed skipped an epoch");
  return epoch;
}

AvailabilitySnapshot EpochFeed::snapshot_at(std::uint64_t epoch) const {
  std::lock_guard lock(epochs_mutex_);
  return epochs_.at(epoch);
}

bool EpochFeed::has_epoch(std::uint64_t epoch) const {
  std::lock_guard lock(epochs_mutex_);
  return epochs_.contains(epoch);
}

ServiceRig::ServiceRig(const Served& served, int workers,
                       std::size_t cache_capacity)
    : epochs_(served.net),
      service_(served.net, served.db, epochs_.feed(), resolve_spec,
               options(workers, cache_capacity)) {}

void ServiceRig::warm(const std::vector<svc::PartitionRequest>& warm) {
  // In batches that fit the admission queue: the workers stay busy instead
  // of waking once per request, so set-up time is compute, not wake-ups.
  constexpr std::size_t kBatch = 32;
  std::vector<std::shared_future<svc::ServiceReply>> batch;
  for (std::size_t i = 0; i < warm.size(); i += kBatch) {
    batch.clear();
    for (std::size_t j = i; j < std::min(warm.size(), i + kBatch); ++j) {
      batch.push_back(service_.submit(warm[j]));
    }
    for (const auto& reply : batch) {
      NP_REQUIRE(reply.get().status == svc::ServiceStatus::Ok,
                 "cache warm-up request failed");
    }
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  const std::uint64_t offset = Rng(seed).stream(2).next_u64() % kNSpan;
  if (name == "cold_start") {
    return std::make_unique<ServiceWorkload>(
        ServiceParams{"cold_start", 40000.0, 0, 0},
        RequestStream::fresh(seed, kClients));
  }
  if (name == "hot_zipf") {
    constexpr std::uint32_t kUniverse = 512;
    std::vector<svc::PartitionRequest> universe;
    for (std::uint32_t r = 0; r < kUniverse; ++r) {
      universe.push_back(partition_request(r, universe_n(r, offset), 10));
    }
    return std::make_unique<ServiceWorkload>(
        ServiceParams{"hot_zipf", 100000.0, 0, kUniverse},
        RequestStream(std::move(universe), zipf_order(seed, kUniverse)));
  }
  if (name == "churn_mixed") {
    // 4096 keys: 3686 Partition keys take 90 % of requests, 410 Repartition
    // keys the other 10 %; each side zipf(1.1) over its own ranks.
    constexpr std::uint32_t kPartitionKeys = 3686;
    constexpr std::uint32_t kRepartitionKeys = 410;
    std::vector<svc::PartitionRequest> universe;
    for (std::uint32_t r = 0; r < kPartitionKeys; ++r) {
      universe.push_back(partition_request(r, universe_n(r, offset), 10));
    }
    Rng rates = Rng(seed).stream(4);
    for (std::uint32_t r = 0; r < kRepartitionKeys; ++r) {
      universe.push_back(repartition_request(rates, r));
    }
    const ZipfSampler part(kPartitionKeys, 1.1);
    const ZipfSampler repart(kRepartitionKeys, 1.1);
    std::vector<std::vector<std::uint32_t>> order(kClients);
    for (int c = 0; c < kClients; ++c) {
      Rng rng = Rng(seed).stream(10 + static_cast<std::uint64_t>(c));
      auto& o = order[static_cast<std::size_t>(c)];
      o.resize(kOrderLength);
      for (std::uint32_t& x : o) {
        x = rng.next_double() < 0.1 ? kPartitionKeys + repart.draw(rng)
                                    : part.draw(rng);
      }
    }
    // The cache holds a quarter of the universe: warm its hottest ranks.
    // An epoch lasts 2 x 8192 requests, about 50 ms at the ~330 k req/s
    // of a client waiting on every reply.
    return std::make_unique<ServiceWorkload>(
        ServiceParams{"churn_mixed", 50000.0, 8192, 1024},
        RequestStream(std::move(universe), std::move(order)));
  }
  if (name == "offline_plan") return std::make_unique<OfflineWorkload>(seed);
  throw ConfigError("unknown workload: " + name);
}

Network seeded_network(Rng rng, const std::vector<int>& sizes) {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(i);
    t.flop_time = SimTime::micros(0.1 + 0.5 * rng.next_double());
    t.int_time = t.flop_time * 0.5;
    t.comm_per_byte = SimTime::nanos(rng.next_int(400, 1600));
    t.comm_per_message =
        SimTime::micros(static_cast<double>(rng.next_int(300, 1000)));
    t.data_format = rng.next_bool(0.25) ? DataFormat::LittleEndian
                                        : DataFormat::BigEndian;
    t.coerce_per_byte = SimTime::nanos(rng.next_int(200, 700));
    b.add_cluster(t.name, t, sizes[i]);
  }
  return b.build();
}

Network oracle_network(std::size_t k) {
  return seeded_network(Rng(kNetworkSeed).stream(200 + k), {12, 12, 12, 12});
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

}  // namespace netpart::e2e
