#include "bench/common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "core/decompose.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace netpart::bench {

const std::vector<std::int64_t>& paper_sizes() {
  static const std::vector<std::int64_t> kSizes = {60, 300, 600, 1200};
  return kSizes;
}

Config parse_bench_args(int argc, const char* const* argv) {
  std::vector<std::string> plain;
  Config flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      flags.set("smoke", "1");
      continue;
    }
    if (arg == "--json-out") {
      NP_REQUIRE(i + 1 < argc, "--json-out needs a path argument");
      flags.set("json_out", argv[++i]);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      arg.erase(0, 2);
      std::replace(arg.begin(), arg.end(), '-', '_');
    }
    plain.push_back(std::move(arg));
  }
  Config config = Config::from_args(plain);
  for (const auto& [key, value] : flags.entries()) {
    config.set(key, value);  // flag spellings win over positional tokens
  }
  return config;
}

CalibrationResult calibrate_testbed(const Network& net, bool all_topos) {
  CalibrationParams params;
  if (!all_topos) {
    params.topologies = {Topology::OneD};
  }
  return calibrate(net, params);
}

AvailabilitySnapshot idle_snapshot(const Network& net) {
  return gather_availability(net, make_managers(net, AvailabilityPolicy{}));
}

std::vector<NamedConfig> table2_configs() {
  return {
      {"1 Sparc2", {1, 0}},          {"2 Sparc2s", {2, 0}},
      {"4 Sparc2s", {4, 0}},         {"6 Sparc2s", {6, 0}},
      {"6 Sparc2s + 2 IPCs", {6, 2}}, {"6 Sparc2s + 4 IPCs", {6, 4}},
      {"6 Sparc2s + 6 IPCs", {6, 6}},
  };
}

double measured_stencil_ms(const Network& net,
                           const apps::StencilConfig& cfg,
                           const ProcessorConfig& config, int runs) {
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const Placement placement = contiguous_placement(net, config);
  const PartitionVector partition =
      balanced_partition(net, config, clusters_by_speed(net), cfg.n);
  ExecutionOptions options;
  options.compute_jitter = 0.01;  // light load variation, as on a real net
  return average_elapsed_ms(net, spec, placement, partition, options, runs);
}

std::string ms(double v) { return format_double(v, 0); }

void write_bench_json(const std::string& path, const JsonValue& root) {
  std::ofstream out(path);
  NP_REQUIRE(out.good(), "cannot open bench json path: " + path);
  out << root.dump(2);
}

PhaseMetrics::PhaseMetrics()
    : last_(obs::TelemetryRegistry::global().snapshot()),
      phases_(JsonValue::object()) {}

void PhaseMetrics::phase(const std::string& name) {
  obs::MetricsSnapshot now = obs::TelemetryRegistry::global().snapshot();
  phases_.set(name, obs::snapshot_json(obs::snapshot_delta(last_, now)));
  last_ = std::move(now);
}

SpeedupGate parallel_speedup_gate(unsigned hardware_concurrency, bool smoke,
                                  int threads, double speedup,
                                  double required_per_thread) {
  if (hardware_concurrency <= 1) return SpeedupGate::SkippedSingleCore;
  if (smoke) return SpeedupGate::SkippedSmoke;
  const int effective = std::min(
      threads, static_cast<int>(hardware_concurrency));
  return speedup >= required_per_thread * static_cast<double>(effective)
             ? SpeedupGate::Pass
             : SpeedupGate::Fail;
}

unsigned detected_hardware_concurrency() {
  if (const char* env = std::getenv("NETPART_HW_CONCURRENCY")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096) {
      return static_cast<unsigned>(v);
    }
  }
  return std::thread::hardware_concurrency();
}

SpeedupEvaluation evaluate_parallel_speedup(bool smoke, int threads,
                                            double speedup,
                                            double required_per_thread) {
  SpeedupEvaluation eval;
  eval.hardware_concurrency = detected_hardware_concurrency();
  eval.effective_threads = std::min(
      threads, static_cast<int>(std::max(1u, eval.hardware_concurrency)));
  eval.required =
      required_per_thread * static_cast<double>(eval.effective_threads);
  eval.gate = parallel_speedup_gate(eval.hardware_concurrency, smoke,
                                    threads, speedup, required_per_thread);
  eval.ok = eval.gate != SpeedupGate::Fail;
  return eval;
}

const char* to_string(SpeedupGate gate) {
  switch (gate) {
    case SpeedupGate::Pass:
      return "ok";
    case SpeedupGate::Fail:
      return "fail";
    case SpeedupGate::SkippedSingleCore:
      return "skipped_single_core";
    case SpeedupGate::SkippedSmoke:
      return "skipped_smoke";
  }
  return "unknown";
}

void GateSet::require(const std::string& name, bool ok) {
  if (!ok) failed_.push_back(name);
  pass_ = pass_ && ok;
}

void GateSet::skip(const std::string& name, const std::string& reason) {
  skipped_.emplace_back(name, reason);
}

JsonValue GateSet::skipped_json() const {
  JsonValue out = JsonValue::array();
  for (const auto& [name, reason] : skipped_) {
    out.push(name + ": " + reason);
  }
  return out;
}

}  // namespace netpart::bench
