#include "exec/adaptive.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>

#include "core/general.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace netpart {

namespace {

/// Wrap a pipeline-clock tracer for a run whose simulator restarts at
/// local time 0: shift every event by the run's pipeline-time origin.
sim::Tracer shifted_tracer(const sim::Tracer& sink, SimTime origin) {
  return [&sink, origin](const sim::TraceEvent& event) {
    sim::TraceEvent shifted = event;
    shifted.at = origin + event.at;
    sink(shifted);
  };
}

/// Simulate moving the PDU deltas between ranks and return the elapsed
/// redistribution time.  Surplus ranks ship blocks to deficit ranks,
/// matched greedily in rank order (blocks are contiguous, so adjacent
/// transfers dominate in practice).
SimTime redistribute(const Network& network, const Placement& placement,
                     const PartitionVector& from, const PartitionVector& to,
                     std::int64_t pdu_bytes,
                     const ExecutionOptions& exec_options, SimTime origin) {
  if (pdu_bytes <= 0) return SimTime::zero();
  struct Delta {
    int rank;
    std::int64_t count;
  };
  std::deque<Delta> surplus;
  std::deque<Delta> deficit;
  for (int r = 0; r < from.num_ranks(); ++r) {
    const std::int64_t d = from.at(r) - to.at(r);
    if (d > 0) surplus.push_back({r, d});
    if (d < 0) deficit.push_back({r, -d});
  }
  if (surplus.empty()) return SimTime::zero();

  sim::Engine engine;
  sim::NetSim net(engine, network, exec_options.sim_params,
                  Rng(exec_options.seed ^ 0x5EED));
  if (exec_options.tracer) {
    net.set_tracer(shifted_tracer(exec_options.tracer, origin));
  }
  // The PDUs travel over the same (possibly degraded) network: arm the
  // fault plan at the pipeline time the redistribution starts.
  std::optional<sim::FaultInjector> injector;
  if (exec_options.faults != nullptr && !exec_options.faults->empty()) {
    injector.emplace(net, *exec_options.faults, origin);
    injector->arm();
  }
  int outstanding = 0;
  while (!surplus.empty()) {
    Delta& s = surplus.front();
    NP_ASSERT(!deficit.empty());
    Delta& d = deficit.front();
    const std::int64_t moved = std::min(s.count, d.count);
    ++outstanding;
    net.send(placement[static_cast<std::size_t>(s.rank)],
             placement[static_cast<std::size_t>(d.rank)],
             moved * pdu_bytes, [&outstanding] { --outstanding; });
    s.count -= moved;
    d.count -= moved;
    if (s.count == 0) surplus.pop_front();
    if (d.count == 0) deficit.pop_front();
  }
  // One event at a time: run() would also drain fault events scheduled
  // past the last transfer's completion.
  while (outstanding > 0 && !engine.idle() &&
         engine.now() < exec_options.budget) {
    engine.step();
  }
  if (outstanding != 0) {
    throw ExecutionStalled("PDU redistribution could not complete (" +
                           std::to_string(outstanding) +
                           " transfers undelivered)");
  }
  return engine.now();
}

AdaptiveResult run_chunked(const Network& network,
                           const ComputationSpec& spec,
                           const Placement& placement,
                           const PartitionVector& initial,
                           const ExecutionOptions& exec_options,
                           const AdaptiveOptions& adaptive_options,
                           bool adapt) {
  NP_REQUIRE(adaptive_options.check_interval >= 1,
             "check interval must be positive");
  NP_REQUIRE(adaptive_options.imbalance_threshold > 1.0,
             "imbalance threshold must exceed 1");

  auto& telemetry = obs::TelemetryRegistry::global();
  static obs::Counter& chunks_counter = telemetry.counter("adaptive.chunks");
  static obs::Counter& repartitions_counter =
      telemetry.counter("adaptive.repartitions");
  static obs::Counter& fault_counter =
      telemetry.counter("adaptive.fault_responses");

  AdaptiveResult result{SimTime::zero(), SimTime::zero(), 0, initial, 0};
  PartitionVector current = initial;
  int iterations_left = spec.iterations();
  int chunk_index = 0;

  while (iterations_left > 0) {
    const int chunk =
        std::min(adaptive_options.check_interval, iterations_left);
    const ComputationSpec chunk_spec(spec.name(), spec.computation_phases(),
                                     spec.communication_phases(), chunk);
    ExecutionOptions options = exec_options;
    options.load_time_origin = exec_options.load_time_origin + result.elapsed;
    options.pdu_bytes = 0;  // the scatter happened before iteration 0
    options.seed = exec_options.seed + static_cast<std::uint64_t>(
                                           997 * chunk_index);
    const SimTime chunk_start = options.load_time_origin;
    if (exec_options.tracer) {
      options.tracer = shifted_tracer(exec_options.tracer, chunk_start);
    }
    const ExecutionResult run =
        execute(network, chunk_spec, placement, current, options);
    chunks_counter.add(1);
    {
      obs::Span chunk_span(telemetry, "adaptive.chunk", chunk_start, "exec");
      if (chunk_span.active()) {
        chunk_span.attr("chunk", JsonValue(chunk_index));
        chunk_span.attr("iterations", JsonValue(chunk));
      }
      chunk_span.end_at(chunk_start + run.elapsed);
    }
    result.elapsed += run.elapsed;
    result.messages_delivered += run.messages_delivered;
    iterations_left -= chunk;
    ++chunk_index;
    if (!adapt || iterations_left == 0) continue;

    // Fault notification: a plan event inside the chunk's window changed
    // the effective network, so the imbalance gate is bypassed and the
    // partition recomputed from what this chunk actually observed.
    const bool disturbed =
        exec_options.faults != nullptr &&
        exec_options.faults->disturbs(chunk_start,
                                      chunk_start + run.elapsed);

    // Observed per-PDU service times reveal the *effective* speeds.
    SimTime busy_min = SimTime::max();
    SimTime busy_max = SimTime::zero();
    std::vector<double> rate(run.rank_busy.size());
    for (std::size_t r = 0; r < run.rank_busy.size(); ++r) {
      busy_min = std::min(busy_min, run.rank_busy[r]);
      busy_max = std::max(busy_max, run.rank_busy[r]);
      const double busy_ms = std::max(run.rank_busy[r].as_millis(), 1e-6);
      rate[r] = static_cast<double>(current.at(static_cast<int>(r))) /
                busy_ms;  // PDUs per ms of observed service
    }
    if (!disturbed &&
        busy_max.as_millis() <
            adaptive_options.imbalance_threshold *
                std::max(busy_min.as_millis(), 1e-9)) {
      continue;  // balanced enough
    }

    PartitionVector next = proportional_partition(rate, current.total());
    if (disturbed) {
      ++result.fault_responses;
      fault_counter.add(1);
      result.first_fault_response =
          std::min(result.first_fault_response,
                   exec_options.load_time_origin + result.elapsed);
    }
    if (next.values() == current.values()) continue;
    const SimTime decision_at = exec_options.load_time_origin + result.elapsed;
    obs::Span repartition_span(telemetry, "adaptive.repartition", decision_at,
                               "exec");
    if (repartition_span.active()) {
      repartition_span.attr("trigger",
                            JsonValue(disturbed ? "fault" : "imbalance"));
      repartition_span.attr("chunk", JsonValue(chunk_index));
    }
    obs::Span migration_span(telemetry, "adaptive.migration", decision_at,
                             "exec");
    const SimTime moved = redistribute(network, placement, current, next,
                                       adaptive_options.pdu_bytes,
                                       exec_options, decision_at);
    if (migration_span.active()) {
      migration_span.attr("moved_ms", JsonValue(moved.as_millis()));
    }
    migration_span.end_at(decision_at + moved);
    repartition_span.end_at(decision_at + moved);
    result.elapsed += moved;
    result.redistribution_time += moved;
    ++result.repartitions;
    repartitions_counter.add(1);
    NP_LOG_DEBUG << "repartitioned after chunk " << chunk_index << ": ["
                 << current.to_string() << "] -> [" << next.to_string()
                 << "] (+" << moved.as_millis() << "ms)";
    current = std::move(next);
  }

  result.final_partition = std::move(current);
  return result;
}

}  // namespace

AdaptiveResult execute_adaptive(const Network& network,
                                const ComputationSpec& spec,
                                const Placement& placement,
                                const PartitionVector& initial,
                                const ExecutionOptions& exec_options,
                                const AdaptiveOptions& adaptive_options) {
  return run_chunked(network, spec, placement, initial, exec_options,
                     adaptive_options, /*adapt=*/true);
}

RecoveryReport evaluate_recovery(const PartitionVector& achieved,
                                 std::span<const double> ms_per_pdu) {
  NP_REQUIRE(static_cast<int>(ms_per_pdu.size()) == achieved.num_ranks(),
             "need one per-PDU time per rank");
  std::vector<double> rate(ms_per_pdu.size());
  for (std::size_t r = 0; r < ms_per_pdu.size(); ++r) {
    NP_REQUIRE(ms_per_pdu[r] > 0.0, "per-PDU times must be positive");
    rate[r] = 1.0 / ms_per_pdu[r];
  }
  RecoveryReport report{0.0, 0.0, 1.0,
                        proportional_partition(rate, achieved.total())};
  const auto cycle_ms = [&ms_per_pdu](const PartitionVector& p) {
    double worst = 0.0;
    for (int r = 0; r < p.num_ranks(); ++r) {
      worst = std::max(worst, static_cast<double>(p.at(r)) *
                                  ms_per_pdu[static_cast<std::size_t>(r)]);
    }
    return worst;
  };
  report.achieved_ms = cycle_ms(achieved);
  report.oracle_ms = cycle_ms(report.oracle);
  report.ratio = report.achieved_ms / std::max(report.oracle_ms, 1e-12);
  return report;
}

ConfigRecoveryReport evaluate_config_recovery(
    const CycleEstimator& estimator, const AvailabilitySnapshot& snapshot,
    const ProcessorConfig& achieved, const ExhaustiveOptions& options) {
  ConfigRecoveryReport report;
  // The achieved configuration is scored once, as the delta baseline of
  // the repair below: bind_delta's estimate is bitwise estimate()'s.
  EstimatorScratch scratch;
  report.achieved_t_c_ms =
      estimator.bind_delta(achieved, scratch.delta, scratch).t_c_ms;
  const PartitionResult oracle =
      exhaustive_partition(estimator, snapshot, options);
  report.oracle_t_c_ms = oracle.estimate.t_c_ms;
  report.oracle_config = oracle.config;
  report.oracle_evaluations = oracle.evaluations;
  report.ratio =
      report.achieved_t_c_ms / std::max(report.oracle_t_c_ms, 1e-12);

  // Local +/-1 repair off the achieved configuration: one round of the
  // general partitioner's climb, 2K delta probes against the bound
  // baseline instead of 2K from-scratch evaluations.
  const NeighbourMove move = best_neighbour_move(
      estimator, snapshot, report.achieved_t_c_ms, scratch);
  report.local_best_t_c_ms = move.t_c_ms;
  report.local_best_config = achieved;
  report.locally_optimal = move.cluster < 0;
  if (move.cluster >= 0) {
    report.local_best_config[static_cast<std::size_t>(move.cluster)] +=
        move.delta;
  }
  estimator.merge_evaluations(scratch.evaluations);
  return report;
}

AdaptiveResult execute_static_chunked(
    const Network& network, const ComputationSpec& spec,
    const Placement& placement, const PartitionVector& initial,
    const ExecutionOptions& exec_options,
    const AdaptiveOptions& adaptive_options) {
  return run_chunked(network, spec, placement, initial, exec_options,
                     adaptive_options, /*adapt=*/false);
}

}  // namespace netpart
