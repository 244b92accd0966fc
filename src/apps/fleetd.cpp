// fleetd: a multi-node netpartd fleet in one process (DESIGN.md §12).
//
// Spins up N fleet nodes over the simulated network -- each with its own
// decision cache, peer table, and hash ring -- and drives a zipf-skewed
// partition-request workload through them, with every cross-node
// interaction (forwards, heartbeats, epoch gossip, hot-entry replication)
// carried as real MMPS messages.  The run then demonstrates the two fleet
// failure paths end to end:
//
//   1. an availability epoch bump entering at node 0 and gossiping
//      ring-wise until every node has invalidated its cache, and
//   2. (with crash=ID) a node crash mid-epoch: the fault-tolerant
//      availability token ring detects the dead manager, its report feeds
//      every peer table, and the post-crash workload fails over to
//      replicas that the hot-entry pushes have already warmed.
//
// Keys:
//   nodes       = fleet size                          (default 4)
//   procs       = processors per node cluster         (default 2)
//   replication = copies per entry (owner + R-1)      (default 2)
//   vnodes      = virtual nodes per node on the ring  (default 16)
//   hot         = owner hits before replication       (default 3)
//   requests    = requests per workload phase         (default 400)
//   universe    = distinct request shapes             (default 32)
//   zipf        = skew exponent                       (default 1.1)
//   seed        = workload seed                       (default 1)
//   crash       = node to crash mid-epoch, -1 = none  (default -1)
//   --check     = run the fleet config lint and exit
//
// Observability (also accepted as --trace-out FILE / --metrics-out FILE /
// --health-out FILE; all pre-flighted by NP-F007):
//   trace_out   = merged multi-lane Chrome trace (one pid per node);
//                 setting it turns fleet span tracing on
//   metrics_out = merged name-ordered metrics text ({node=N} dimension
//                 on per-node rows, fleet.request.* per-hop histograms,
//                 the process-wide fleet.* counters as plain rows)
//   health_out  = per-node health/SLO summary (p50/p99 latency, forward
//                 ratio, warm fraction, dead peers)
//
// Example:
//   fleetd nodes=4 replication=2 crash=3 --trace-out fleet_trace.json
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/fleet_lint.hpp"
#include "fleet/driver.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_telemetry.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/availability.hpp"
#include "obs/chrome_trace.hpp"
#include "util/config.hpp"

namespace netpart {
namespace {

int run(const Config& args) {
  const int nodes = static_cast<int>(args.get_int_or("nodes", 4));
  const int procs = static_cast<int>(args.get_int_or("procs", 2));
  fleet::FleetOptions options;
  options.replication = static_cast<int>(args.get_int_or("replication", 2));
  options.node.vnodes = static_cast<int>(args.get_int_or("vnodes", 16));
  options.node.hot_threshold = static_cast<int>(args.get_int_or("hot", 3));
  const int requests = static_cast<int>(args.get_int_or("requests", 400));
  const int universe = static_cast<int>(args.get_int_or("universe", 32));
  const double zipf = args.get_double_or("zipf", 1.1);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const int crash = static_cast<int>(args.get_int_or("crash", -1));
  const auto trace_out = args.get("trace_out");
  const auto metrics_out = args.get("metrics_out");
  const auto health_out = args.get("health_out");
  // Asking for a trace is the opt-in for span recording; metrics and
  // health come from counters/histograms, which are always on.
  options.tracing = trace_out.has_value();
  options.trace_seed = seed;

  // Pre-flight: the same lint `npcheck --fleet` runs; refuses to start on
  // error-severity findings (NP-F001 bad replication factor, NP-F007
  // unwritable/clashing observability paths, ...).
  analysis::FleetLintConfig lint;
  lint.nodes = nodes;
  lint.replication = options.replication;
  lint.vnodes = options.node.vnodes;
  lint.hot_threshold = options.node.hot_threshold;
  lint.heartbeat_ms = options.heartbeat_period.as_millis();
  lint.gossip_ms = options.gossip_period.as_millis();
  lint.suspect_ms = options.peer.suspect_after.as_millis();
  lint.dead_ms = options.peer.dead_after.as_millis();
  lint.forward_timeout_ms = options.forward_timeout.as_millis();
  lint.trace_out = trace_out.value_or("");
  lint.metrics_out = metrics_out.value_or("");
  lint.health_out = health_out.value_or("");
  analysis::require_fleet(lint);
  if (args.get_bool_or("check", false)) {
    std::printf("fleet config ok: %d nodes, replication %d, %d vnodes\n",
                nodes, options.replication, options.node.vnodes);
    return 0;
  }
  NP_REQUIRE(crash < nodes, "crash id out of range");
  NP_REQUIRE(crash != 0, "node 0 initiates the availability protocol and "
                         "must stay alive");

  const Network net = fleet::make_fleet_network(nodes, procs);
  sim::Engine engine;
  sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(seed));
  fleet::Fleet fl(sim, options, fleet::synthetic_cold_path(net));
  fl.start();

  fleet::WorkloadOptions workload;
  workload.requests = requests;
  workload.distinct_keys = universe;
  workload.zipf_s = zipf;
  workload.seed = seed;

  std::printf("fleetd: %d nodes x %d procs, replication %d, %d vnodes, "
              "%d requests/phase over %d shapes (zipf %.2f)\n\n",
              nodes, procs, options.replication, options.node.vnodes,
              requests, universe, zipf);

  // --- phase 1: steady state -------------------------------------------
  const fleet::WorkloadResult steady = fleet::run_workload(fl, workload);
  const fleet::FleetStats& s = fl.stats();
  std::printf("steady   : ok %llu/%llu  rps %.0f  hit-replies %.1f%%  "
              "forwards %llu  local %llu  replica-serves %llu\n",
              static_cast<unsigned long long>(steady.ok),
              static_cast<unsigned long long>(steady.submitted), steady.rps,
              100.0 * static_cast<double>(steady.hit_replies) /
                  static_cast<double>(steady.submitted),
              static_cast<unsigned long long>(s.forwards),
              static_cast<unsigned long long>(s.local_serves),
              static_cast<unsigned long long>(s.replica_serves));

  // --- phase 2: epoch bump gossips to every node ------------------------
  const std::uint64_t epoch = fl.node(0).epoch() + 1;
  const std::uint64_t rounds_before = s.gossip_rounds;
  fl.announce_epoch(0, epoch);
  const auto converged = [&] {
    for (fleet::NodeId id : fl.node_ids()) {
      if (fl.node_alive(id) && fl.node(id).epoch() != epoch) return false;
    }
    return true;
  };
  while (!converged() &&
         s.gossip_rounds - rounds_before <=
             2 * static_cast<std::uint64_t>(nodes) + 2 &&
         engine.step()) {
  }
  std::printf("epoch    : %llu reached all nodes in %llu gossip rounds "
              "(bound 2N = %d)\n",
              static_cast<unsigned long long>(epoch),
              static_cast<unsigned long long>(s.gossip_rounds -
                                              rounds_before),
              2 * nodes);

  // --- phase 3: optional mid-epoch crash + warm failover ----------------
  if (crash >= 0) {
    // Re-warm the hot head under the new epoch so the crash has warm
    // state to lose.
    (void)fleet::run_workload(fl, workload);
    sim.host(ProcessorRef{crash, 0}).crash();
    const double warm = fl.warm_fraction_for(crash);

    // The PR 1 fault-tolerant token ring detects the dead manager; its
    // report feeds every surviving peer table.
    const std::vector<ClusterManager> managers = make_managers(net, {});
    const mmps::ProtocolResult avail =
        mmps::run_fault_tolerant_protocol(sim, managers);
    fl.report_dead_peers(avail.dead);

    const std::uint64_t failovers_before = s.failovers;
    const fleet::WorkloadResult after = fleet::run_workload(fl, workload);
    std::printf("crash    : node %d down; token ring reported %zu dead, "
                "warm replicas held %.0f%% of its hot entries\n",
                crash, avail.dead.size(), 100.0 * warm);
    std::printf("failover : ok %llu/%llu  rps %.0f  failovers %llu  "
                "max chain %d\n",
                static_cast<unsigned long long>(after.ok),
                static_cast<unsigned long long>(after.submitted), after.rps,
                static_cast<unsigned long long>(s.failovers -
                                                failovers_before),
                after.max_failovers);
  }

  std::printf("\ngossip   : %llu rounds, %llu messages, %llu adoptions; "
              "heartbeats %llu; replication pushes %llu, inserts %llu\n",
              static_cast<unsigned long long>(s.gossip_rounds),
              static_cast<unsigned long long>(s.gossip_messages),
              static_cast<unsigned long long>(s.epoch_adoptions),
              static_cast<unsigned long long>(s.heartbeats),
              static_cast<unsigned long long>(s.replications_pushed),
              static_cast<unsigned long long>(s.replica_inserts));
  fl.stop();

  // --- merged observability artifacts ----------------------------------
  fleet::FleetTelemetry telemetry(fl);
  if (trace_out) {
    std::ofstream out(*trace_out);
    NP_REQUIRE(out.good(), "cannot open trace_out path");
    obs::write_chrome_trace(out, telemetry.lanes());
    std::size_t spans = 0;
    for (fleet::NodeId id : fl.node_ids()) {
      spans += fl.node(id).telemetry().span_count();
    }
    std::printf("trace -> %s (%zu spans across %d node lanes)\n",
                trace_out->c_str(), spans, fl.num_nodes());
  }
  if (metrics_out) {
    std::ofstream out(*metrics_out);
    NP_REQUIRE(out.good(), "cannot open metrics_out path");
    // The fleet's process-wide counters (fleet.forwards, fleet.failovers,
    // fleet.gossip_rounds, fleet.replications) live on the global
    // registry: its rows join the dump plain, as netpartd's do.
    std::vector<obs::LabelledRegistry> sources = telemetry.metric_sources();
    sources.push_back({&obs::TelemetryRegistry::global(), ""});
    out << obs::merged_metrics_text(sources);
    std::printf("metrics -> %s\n", metrics_out->c_str());
  }
  if (health_out) {
    std::ofstream out(*health_out);
    NP_REQUIRE(out.good(), "cannot open health_out path");
    out << telemetry.health_text();
    std::printf("health -> %s\n", health_out->c_str());
  }
  return 0;
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  try {
    return netpart::run(netpart::Config::from_args(
        argc, argv,
        {{"--check", "check", false},
         {"--trace-out", "trace_out"},
         {"--metrics-out", "metrics_out"},
         {"--health-out", "health_out"}}));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetd: %s\n", e.what());
    return 1;
  }
}
