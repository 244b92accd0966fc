// netpart_cli: config-driven driver for the whole library.
//
// Reads key=value arguments, builds a network, calibrates (or loads a saved
// cost model), partitions the chosen application, executes it on the
// simulator, and reports prediction vs measurement.
//
// Keys:
//   app        = stencil | sten2 | gauss | particles | reduce   (default stencil)
//   spec       = path to an annotation spec file (overrides app; see
//                dp/spec_parser.hpp and specs/*.spec)
//   n          = problem size; with spec= this overrides param N
//   iterations = cycles (ignored when spec= provides its own)
//   network    = paper | fig1 | coercion | metasystem            (default paper)
//   model_in   = path to a saved cost model (skips calibration)
//   model_out  = path to save the calibrated cost model
//   loss       = datagram loss probability                      (default 0)
//   partitioner= heuristic | general | exhaustive               (default heuristic)
//
// Example:
//   netpart_cli app=sten2 n=1200 model_out=/tmp/testbed.costmodel
//   netpart_cli app=gauss n=256 model_in=/tmp/testbed.costmodel
//   netpart_cli spec=specs/stencil.spec n=600
#include <cstdio>

#include "apps/catalog.hpp"
#include "calib/calibrate.hpp"
#include "calib/model_io.hpp"
#include "core/general.hpp"
#include "dp/spec_parser.hpp"
#include "exec/executor.hpp"
#include "net/presets.hpp"
#include "util/config.hpp"

namespace netpart {
namespace {

Network make_network(const std::string& name) {
  if (name == "paper") return presets::paper_testbed();
  if (name == "fig1") return presets::fig1_network();
  if (name == "coercion") return presets::coercion_testbed();
  if (name == "metasystem") return presets::metasystem();
  throw ConfigError("unknown network: " + name);
}

ComputationSpec make_computation(const Config& args) {
  if (const auto path = args.get("spec")) {
    // Compiler-generated-callback route: annotations from a spec file,
    // with n= overriding the N parameter when declared.
    const SpecTemplate tmpl = parse_spec_file(*path);
    std::map<std::string, double> overrides;
    if (args.contains("n") && tmpl.params().count("N") > 0) {
      overrides["N"] = static_cast<double>(args.get_int_or("n", 0));
    }
    return tmpl.instantiate(overrides);
  }
  return apps::spec_by_name(
      args.get_or("app", "stencil"),
      static_cast<int>(args.get_int_or("n", 600)),
      static_cast<int>(args.get_int_or("iterations", 10)));
}

int run(const Config& args) {
  const Network net = make_network(args.get_or("network", "paper"));
  const ComputationSpec spec = make_computation(args);
  std::printf("%s", net.describe().c_str());
  std::printf("application: %s, %lld PDUs, %d cycles\n\n",
              spec.name().c_str(),
              static_cast<long long>(spec.num_pdus()), spec.iterations());

  // Cost model: load a saved calibration, or benchmark now.
  CostModelDb db(net.num_clusters());
  if (const auto path = args.get("model_in")) {
    db = load_cost_model_file(*path);
    std::printf("loaded cost model from %s\n", path->c_str());
  } else {
    std::printf("calibrating (this benchmarks every cluster/topology "
                "pair)...\n");
    db = calibrate(net).db;
  }
  if (const auto path = args.get("model_out")) {
    save_cost_model_file(db, *path);
    std::printf("saved cost model to %s\n", path->c_str());
  }

  const AvailabilitySnapshot snapshot =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  CycleEstimator estimator(net, db, spec);

  const std::string which = args.get_or("partitioner", "heuristic");
  PartitionResult plan = [&] {
    if (which == "heuristic") return partition(estimator, snapshot);
    if (which == "general") return general_partition(estimator, snapshot);
    if (which == "exhaustive") {
      return exhaustive_partition(estimator, snapshot);
    }
    throw ConfigError("unknown partitioner: " + which);
  }();

  std::printf("\n%s partitioner chose:", which.c_str());
  for (std::size_t c = 0; c < plan.config.size(); ++c) {
    std::printf(" %s=%d", net.cluster(static_cast<ClusterId>(c)).name().c_str(),
                plan.config[c]);
  }
  std::printf("  (%llu objective evaluations)\n",
              static_cast<unsigned long long>(plan.evaluations));
  std::printf("partition vector A = [%s]\n",
              plan.estimate.partition.to_string().c_str());
  std::printf("estimate: T_comp %.2f + T_comm %.2f - T_overlap %.2f = "
              "T_c %.2f ms/cycle -> %.0f ms total\n",
              plan.estimate.t_comp_ms, plan.estimate.t_comm_ms,
              plan.estimate.t_overlap_ms, plan.estimate.t_c_ms,
              plan.estimate.t_elapsed_ms);

  ExecutionOptions options;
  options.sim_params.loss_rate = args.get_double_or("loss", 0.0);
  const ExecutionResult result =
      execute(net, spec, plan.placement, plan.estimate.partition, options);
  std::printf("measured: %.0f ms (%llu messages, %llu retransmissions)\n",
              result.elapsed.as_millis(),
              static_cast<unsigned long long>(result.messages_delivered),
              static_cast<unsigned long long>(result.retransmissions));
  return 0;
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  try {
    return netpart::run(netpart::Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netpart_cli: %s\n", e.what());
    return 1;
  }
}
