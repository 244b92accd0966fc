// Partition-service performance: cold vs. cached latency, and throughput
// scaling with worker threads (the start of the perf trajectory for the
// src/svc subsystem; see DESIGN.md §8).
//
// Part 1 -- latency: one worker, one client, a universe of distinct
// requests queried cold once then re-queried hot.  Per-request wall
// latencies are kept raw (cache hits are sub-microsecond; histogram
// buckets would flatten the tail) and summarised as p50/p95/p99.
//
// Part 2 -- scaling: a cold-only mix (every request a distinct key, the
// cache never hits) against 1/2/4 workers.  Each cold decision runs the
// real partitioner (Linear search on a larger random network) plus a
// simulated availability-manager round trip -- the blocking a deployed
// service pays to refresh N_i before a cold decision.  Worker scaling
// therefore measures service-time overlap, which holds even on the
// single-core CI container where raw CPU parallelism cannot.
//
// Emits BENCH_service.json with both sections plus the pass/fail of the
// two acceptance checks (hit >= 5x cheaper than cold; 2 workers > 1).
//
// Keys: universe, hit_rounds, cold_requests, clients, json_out.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "svc/service.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace netpart {
namespace {

using Clock = std::chrono::steady_clock;

ComputationSpec resolve_stencil(const svc::PartitionRequest& request) {
  return apps::make_stencil_spec(apps::StencilConfig{
      .n = static_cast<int>(request.n), .iterations = request.iterations});
}

svc::PartitionRequest stencil_request(std::int64_t n, bool heavy) {
  svc::PartitionRequest request;
  request.spec = "stencil";
  request.n = n;
  request.iterations = 10;
  if (heavy) request.options.search = PartitionOptions::Search::Linear;
  return request;
}

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

struct LatencySummary {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, mean = 0.0;
};

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.p50 = percentile(samples, 0.50);
  s.p95 = percentile(samples, 0.95);
  s.p99 = percentile(samples, 0.99);
  double total = 0.0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(samples.size());
  return s;
}

JsonValue to_json(const LatencySummary& s) {
  JsonValue out = JsonValue::object();
  out.set("p50_us", s.p50);
  out.set("p95_us", s.p95);
  out.set("p99_us", s.p99);
  out.set("mean_us", s.mean);
  return out;
}

/// How long the simulated cluster-manager round trip blocks a cold
/// decision (Section 4's availability protocol, paid remotely).
constexpr auto kManagerRpc = std::chrono::microseconds(200);

/// Cold-only throughput: `clients` threads each synchronously querying a
/// disjoint slice of distinct keys against a fresh service.
double cold_throughput_rps(const Network& net, const CostModelDb& db,
                           int workers, int clients, int total_requests) {
  AvailabilityFeed feed(net, make_managers(net, AvailabilityPolicy{}));
  svc::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = static_cast<std::size_t>(total_requests);
  options.cold_override = [&net, &db](const svc::PartitionRequest& request,
                                      const AvailabilitySnapshot& snapshot) {
    std::this_thread::sleep_for(kManagerRpc);
    svc::PartitionDecision decision;
    const ComputationSpec spec = resolve_stencil(request);
    const CycleEstimator estimator(net, db, spec);
    PartitionResult result = partition(estimator, snapshot, request.options);
    decision.partition = std::move(result.estimate.partition);
    decision.config = std::move(result.config);
    decision.placement = std::move(result.placement);
    decision.t_c_ms = result.estimate.t_c_ms;
    decision.evaluations = result.evaluations;
    return decision;
  };
  svc::PartitionService service(net, db, feed, resolve_stencil, options);

  const int per_client = total_requests / clients;
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (int r = 0; r < per_client; ++r) {
        // Distinct n per (client, request): every query is a cold miss.
        const std::int64_t n = 64 + c * per_client + r;
        (void)service.query(stencil_request(n, /*heavy=*/true));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double secs = elapsed_us(t0) / 1e6;
  return static_cast<double>(per_client * clients) / secs;
}

int run(const Config& args) {
  const int universe = static_cast<int>(args.get_int_or("universe", 64));
  const int hit_rounds =
      static_cast<int>(args.get_int_or("hit_rounds", 50));
  const int cold_requests =
      static_cast<int>(args.get_int_or("cold_requests", 96));
  const int clients = static_cast<int>(args.get_int_or("clients", 8));
  const std::string json_out = args.get_or("json_out", "BENCH_service.json");

  bench::PhaseMetrics phase_metrics;

  // --- Part 1: cold vs. hit latency on the paper testbed. -------------
  const Network net = presets::paper_testbed();
  const CostModelDb db = bench::calibrate_testbed(net).db;
  AvailabilityFeed feed(net, make_managers(net, AvailabilityPolicy{}));
  svc::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = static_cast<std::size_t>(universe);
  svc::PartitionService service(net, db, feed, resolve_stencil, options);

  std::vector<double> cold_us, hit_us;
  cold_us.reserve(static_cast<std::size_t>(universe));
  hit_us.reserve(static_cast<std::size_t>(universe * hit_rounds));
  for (int k = 0; k < universe; ++k) {
    const auto t0 = Clock::now();
    const svc::ServiceReply reply =
        service.query(stencil_request(60 + 10 * k, /*heavy=*/false));
    NP_REQUIRE(reply.status == svc::ServiceStatus::Ok, reply.error);
    NP_REQUIRE(!reply.cache_hit, "first query of a key must be cold");
    cold_us.push_back(elapsed_us(t0));
  }
  for (int round = 0; round < hit_rounds; ++round) {
    for (int k = 0; k < universe; ++k) {
      const auto t0 = Clock::now();
      const svc::ServiceReply reply =
          service.query(stencil_request(60 + 10 * k, /*heavy=*/false));
      NP_REQUIRE(reply.status == svc::ServiceStatus::Ok && reply.cache_hit,
                 "warmed key must hit");
      hit_us.push_back(elapsed_us(t0));
    }
  }
  const LatencySummary cold = summarize(cold_us);
  const LatencySummary hit = summarize(hit_us);
  const double hit_speedup = cold.p50 / hit.p50;
  phase_metrics.phase("latency");

  // --- Part 2: throughput scaling on a cold-only mix. -----------------
  Rng rng(7);
  const Network big = presets::random_network(rng, 10, 32);
  const CostModelDb big_db = bench::calibrate_testbed(big).db;
  const std::vector<int> worker_counts = {1, 2, 4};
  std::vector<double> rps;
  rps.reserve(worker_counts.size());
  for (int workers : worker_counts) {
    rps.push_back(cold_throughput_rps(big, big_db, workers, clients,
                                      cold_requests));
  }
  const double scaling_2w = rps[1] / rps[0];
  phase_metrics.phase("throughput");

  // --- Report. ---------------------------------------------------------
  Table latency({"path", "p50 us", "p95 us", "p99 us", "mean us"});
  const auto lat_row = [&latency](const char* label,
                                  const LatencySummary& s) {
    latency.add_row({label, format_double(s.p50, 1), format_double(s.p95, 1),
                     format_double(s.p99, 1), format_double(s.mean, 1)});
  };
  lat_row("cold (miss)", cold);
  lat_row("cached (hit)", hit);
  std::printf("%s\n", latency.render("service latency, 1 worker").c_str());
  std::printf("  hit speedup (cold p50 / hit p50): %.1fx\n\n", hit_speedup);

  Table scaling({"workers", "cold rps"});
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    scaling.add_row({std::to_string(worker_counts[i]),
                     format_double(rps[i], 0)});
  }
  std::printf("%s\n",
              scaling.render("cold-mix throughput vs workers").c_str());
  std::printf("  2-worker scaling over 1: %.2fx\n", scaling_2w);

  JsonValue root = JsonValue::object();
  root.set("bench", "service");
  JsonValue config = JsonValue::object();
  config.set("universe", universe);
  config.set("hit_rounds", hit_rounds);
  config.set("cold_requests", cold_requests);
  config.set("clients", clients);
  root.set("config", std::move(config));
  JsonValue lat = JsonValue::object();
  lat.set("cold", to_json(cold));
  lat.set("hit", to_json(hit));
  lat.set("hit_speedup_p50", hit_speedup);
  root.set("latency", std::move(lat));
  JsonValue thr = JsonValue::object();
  JsonValue points = JsonValue::array();
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    JsonValue point = JsonValue::object();
    point.set("workers", worker_counts[i]);
    point.set("rps", rps[i]);
    points.push(std::move(point));
  }
  thr.set("points", std::move(points));
  thr.set("scaling_2w_over_1w", scaling_2w);
  root.set("throughput", std::move(thr));
  root.set("metrics", phase_metrics.to_json());
  JsonValue checks = JsonValue::object();
  checks.set("hit_5x_cheaper_than_cold", hit_speedup >= 5.0);
  checks.set("workers_scale_2_gt_1", scaling_2w > 1.0);
  root.set("checks", std::move(checks));
  bench::write_bench_json(json_out, root);
  std::printf("\nresults -> %s\n", json_out.c_str());

  return hit_speedup >= 5.0 && scaling_2w > 1.0 ? 0 : 1;
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  try {
    return netpart::run(netpart::bench::parse_bench_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return 1;
  }
}
