// netpartd: the partition service under synthetic traffic.
//
// Long-lived daemon shape of the library: a PartitionService fronts the
// partitioner for N concurrent clients issuing a zipf-skewed request mix
// (a few hot problem specs, a long tail of cold ones) while availability
// churn bumps the epoch mid-run -- exactly the workload the decision cache,
// request coalescing, and admission control exist for.  At the end the
// service's own metrics registry reports throughput, hit rate, and
// latency tails, optionally as CSV/JSON for dashboards.
//
// Keys:
//   network  = paper | fig1 | coercion | metasystem   (default paper)
//   apps     = comma list cycled across the universe   (default stencil,sten2)
//   workers  = worker threads                          (default 4)
//   queue    = request queue capacity                  (default 64)
//   cache    = decision cache capacity                 (default 4096)
//   shards   = cache shards                            (default 8)
//   clients  = client threads                          (default 8)
//   requests = requests per client                     (default 200)
//   universe = distinct problem sizes                  (default 24)
//   zipf     = skew exponent, 0 = uniform              (default 1.1)
//   churn    = availability updates, spread evenly over client 0's
//              requests                                 (default 4)
//   seed     = workload seed                           (default 1)
//   model_in = saved cost model (skips calibration)
//   json_out = metrics JSON path,  csv_out = metrics CSV path
//
// Telemetry (also accepted as --trace-out FILE / --metrics-out FILE):
//   trace_out   = Chrome trace-event JSON (chrome://tracing, Perfetto)
//   metrics_out = name-ordered metrics text: the global registry's rows
//                 plain, the service's counters and hit/cold latencies
//                 labelled {registry=service}
// Either flag enables the global telemetry registry and appends a traced
// adaptive-repartitioning stage after the service run, so the trace shows
// the full pipeline: partitioner search, service request lifecycles, and
// an adaptive repartition with its simulated message traffic.
//
// Example:
//   netpartd clients=16 workers=4 universe=32 zipf=1.2 churn=6
//   netpartd clients=4 requests=50 --trace-out trace.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "analysis/preflight.hpp"
#include "apps/catalog.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "calib/model_io.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "net/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/sim_bridge.hpp"
#include "obs/telemetry.hpp"
#include "sim/trace.hpp"
#include "svc/service.hpp"
#include "topo/placement.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace netpart {
namespace {

Network make_network(const std::string& name) {
  if (name == "paper") return presets::paper_testbed();
  if (name == "fig1") return presets::fig1_network();
  if (name == "coercion") return presets::coercion_testbed();
  if (name == "metasystem") return presets::metasystem();
  throw ConfigError("unknown network: " + name);
}

ComputationSpec resolve_spec(const svc::PartitionRequest& request) {
  return apps::spec_by_name(request.spec, static_cast<int>(request.n),
                            request.iterations);
}

/// A small adaptive pipeline under a mid-run load step, appended when
/// telemetry export is on: it puts the adaptive.chunk / repartition /
/// migration spans on the simulated-time track and bridges the run's
/// (bounded) message trace into the registry so the exported file shows a
/// complete message lifecycle next to the service's wall-clock spans.
void traced_adaptive_stage(const Network& net) {
  const apps::StencilConfig cfg{.n = 1200, .iterations = 40,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const std::vector<ClusterId> order = clusters_by_speed(net);
  const ClusterId c0 = order.front();
  ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
  config[static_cast<std::size_t>(c0)] =
      std::min(6, net.cluster(c0).size());
  const Placement placement = contiguous_placement(net, config, order);
  const PartitionVector initial =
      balanced_partition(net, config, order, cfg.n);

  // Half the selected processors take on background load two simulated
  // seconds in -- enough imbalance to force at least one repartition.
  const LoadSchedule load = LoadSchedule::step(
      net, c0, config[static_cast<std::size_t>(c0)] / 2,
      SimTime::seconds(2), 0.5);

  sim::TraceLog log(1 << 16);
  ExecutionOptions exec_options;
  exec_options.load = &load;
  exec_options.tracer = log.tracer();
  const AdaptiveOptions adaptive_options{.check_interval = 5,
                                         .imbalance_threshold = 1.2,
                                         .pdu_bytes = 4 * cfg.n};
  const AdaptiveResult result = execute_adaptive(
      net, spec, placement, initial, exec_options, adaptive_options);
  obs::bridge_trace_log(log, obs::TelemetryRegistry::global());
  std::printf("\ntraced adaptive stage: %d repartitions over %s simulated "
              "ms\n", result.repartitions,
              format_double(result.elapsed.as_millis(), 0).c_str());
}

int run(const Config& args) {
  const auto trace_out = args.get("trace_out");
  const auto metrics_out = args.get("metrics_out");
  const bool telemetry = trace_out.has_value() || metrics_out.has_value();
  if (telemetry) obs::TelemetryRegistry::global().set_enabled(true);

  const Network net = make_network(args.get_or("network", "paper"));
  std::printf("%s", net.describe().c_str());

  CostModelDb db(net.num_clusters());
  if (const auto path = args.get("model_in")) {
    db = load_cost_model_file(*path);
    std::printf("loaded cost model from %s\n", path->c_str());
  } else {
    std::printf("calibrating 1-D cost model...\n");
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    db = calibrate(net, params).db;
  }

  // Pre-flight: lint the network + cost model before serving.  Under
  // --check (check=1) report the diagnostics and exit without serving --
  // 0 when error-free, 1 otherwise; the default path refuses to start on
  // error-severity findings (a bad model would skew every reply).
  if (args.get_int_or("check", 0) != 0) {
    const analysis::DiagnosticSink sink = analysis::preflight(net, db);
    std::printf("%s", sink.render_text().c_str());
    return sink.clean() ? 0 : 1;
  }
  analysis::require_preflight(net, db);

  AvailabilityFeed feed(net, make_managers(net, AvailabilityPolicy{}));

  svc::ServiceOptions options;
  options.workers = static_cast<int>(args.get_int_or("workers", 4));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int_or("queue", 64));
  options.cache_capacity =
      static_cast<std::size_t>(args.get_int_or("cache", 4096));
  options.cache_shards = static_cast<int>(args.get_int_or("shards", 8));
  svc::PartitionService service(net, db, feed, resolve_spec, options);

  // The request universe: `universe` problem sizes cycled across the app
  // list, ranked by zipf popularity (rank 0 hottest).
  const int universe = static_cast<int>(args.get_int_or("universe", 24));
  const double zipf = args.get_double_or("zipf", 1.1);
  const int clients = static_cast<int>(args.get_int_or("clients", 8));
  const int per_client = static_cast<int>(args.get_int_or("requests", 200));
  const int churn_waves = static_cast<int>(args.get_int_or("churn", 4));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  NP_REQUIRE(universe >= 1 && clients >= 1 && per_client >= 1,
             "universe, clients, and requests must be positive");

  std::vector<std::string> apps;
  for (const std::string& a :
       split(args.get_or("apps", "stencil,sten2"), ',')) {
    apps.push_back(std::string(trim(a)));
  }
  std::vector<svc::PartitionRequest> mix;
  mix.reserve(static_cast<std::size_t>(universe));
  for (int k = 0; k < universe; ++k) {
    svc::PartitionRequest request;
    request.spec = apps[static_cast<std::size_t>(k) % apps.size()];
    request.n = 60 + 50 * k;
    request.iterations = 10;
    mix.push_back(std::move(request));
  }
  const ZipfSampler sampler(universe, zipf);

  std::printf("\n%d clients x %d requests over %d specs (zipf %.2f), "
              "%d workers, queue %d, cache %d/%d shards, %d churn waves\n",
              clients, per_client, universe, zipf, options.workers,
              static_cast<int>(options.queue_capacity),
              static_cast<int>(options.cache_capacity), options.cache_shards,
              churn_waves);

  std::atomic<std::uint64_t> ok{0}, overloaded{0}, failed{0};
  const auto t0 = std::chrono::steady_clock::now();

  // Availability churn, counted in requests: client 0 applies wave w
  // before its request (w + 1) * requests / (churn + 1), revoking a
  // growing slice of the largest cluster on even waves and restoring on
  // odd ones -- every wave bumps the feed's epoch and invalidates.
  const AvailabilitySnapshot base = feed.read().first;
  const auto churn_wave = [&](int wave) {
    AvailabilitySnapshot next = base;
    if (wave % 2 == 0) {
      auto widest =
          std::max_element(next.available.begin(), next.available.end());
      *widest = std::max(1, *widest - 1 - wave / 2);
    }
    feed.update(std::move(next));
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      Rng rng = Rng(seed).stream(static_cast<std::uint64_t>(c) + 1);
      int wave = 0;
      for (int r = 0; r < per_client; ++r) {
        while (c == 0 && wave < churn_waves &&
               r == static_cast<int>(static_cast<std::int64_t>(wave + 1) *
                                     per_client / (churn_waves + 1))) {
          churn_wave(wave++);
        }
        const svc::PartitionRequest& request =
            mix[static_cast<std::size_t>(sampler.draw(rng))];
        const svc::ServiceReply reply = service.query(request);
        switch (reply.status) {
          case svc::ServiceStatus::Ok: ++ok; break;
          case svc::ServiceStatus::Overloaded: ++overloaded; break;
          case svc::ServiceStatus::Failed: ++failed; break;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  auto& m = service.metrics();
  const svc::DecisionCache::Stats cache = service.cache().stats();
  const std::uint64_t requests = clients * per_client;

  Table table({"metric", "value"});
  const auto row = [&table](const std::string& k, const std::string& v) {
    table.add_row({k, v});
  };
  row("requests", std::to_string(requests));
  row("throughput rps", format_double(
          static_cast<double>(requests) / elapsed_s, 0));
  row("ok / overloaded / failed",
      std::to_string(ok.load()) + " / " + std::to_string(overloaded.load()) +
          " / " + std::to_string(failed.load()));
  row("cache hits", std::to_string(cache.hits));
  row("hit rate %", format_double(100.0 * static_cast<double>(cache.hits) /
                                      static_cast<double>(requests), 1));
  row("coalesced", std::to_string(m.counter("coalesced").value()));
  row("cold computes", std::to_string(m.counter("cold_computes").value()));
  row("epoch bumps", std::to_string(m.counter("epoch_bumps").value()));
  row("cache size / evictions / invalidated",
      std::to_string(service.cache().size()) + " / " +
          std::to_string(cache.evictions) + " / " +
          std::to_string(cache.invalidated));
  const obs::QuantileSummary hit = m.latency("hit").quantiles();
  const obs::QuantileSummary cold = m.latency("cold").quantiles();
  row("hit p50/p95/p99 us",
      format_double(hit.p50, 1) + " / " + format_double(hit.p95, 1) + " / " +
          format_double(hit.p99, 1));
  row("cold p50/p95/p99 us",
      format_double(cold.p50, 1) + " / " + format_double(cold.p95, 1) +
          " / " + format_double(cold.p99, 1));
  std::printf("\n%s\n", table.render("partition service under load").c_str());

  if (const auto path = args.get("json_out")) {
    std::ofstream out(*path);
    NP_REQUIRE(out.good(), "cannot open json_out path");
    out << m.to_json().dump(2);
    std::printf("metrics JSON -> %s\n", path->c_str());
  }
  if (const auto path = args.get("csv_out")) {
    std::ofstream out(*path);
    NP_REQUIRE(out.good(), "cannot open csv_out path");
    m.write_csv(out);
    std::printf("metrics CSV -> %s\n", path->c_str());
  }

  if (telemetry) {
    traced_adaptive_stage(net);
    if (trace_out) {
      std::ofstream out(*trace_out);
      NP_REQUIRE(out.good(), "cannot open trace_out path");
      obs::write_chrome_trace(out, obs::TelemetryRegistry::global());
      std::printf("trace -> %s (%zu spans)\n", trace_out->c_str(),
                  obs::TelemetryRegistry::global().span_count());
    }
    if (metrics_out) {
      std::ofstream out(*metrics_out);
      NP_REQUIRE(out.good(), "cannot open metrics_out path");
      out << obs::merged_metrics_text(
          {{&obs::TelemetryRegistry::global(), ""},
           {&service.metrics(), "registry=service"}});
      std::printf("metrics -> %s\n", metrics_out->c_str());
    }
  }
  return failed.load() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  try {
    return netpart::run(netpart::Config::from_args(
        argc, argv,
        {{"--check", "check", false},
         {"--trace-out", "trace_out"},
         {"--metrics-out", "metrics_out"}}));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netpartd: %s\n", e.what());
    return 1;
  }
}
