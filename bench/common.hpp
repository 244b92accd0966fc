// Shared setup for the paper-reproduction benchmarks: the Section 6 testbed,
// its calibration, and the stencil configurations of Tables 1 and 2.
#pragma once

#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/partitioner.hpp"
#include "exec/executor.hpp"
#include "net/availability.hpp"
#include "net/presets.hpp"
#include "obs/telemetry.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

namespace netpart::bench {

/// The paper's problem sizes.
const std::vector<std::int64_t>& paper_sizes();

/// Shared bench command line.  Accepts the `key=value` tokens every bench
/// already takes, plus flag spellings common to all benches:
///
///   --json-out <path> / --json-out=<path>   -> json_out=<path>
///   --smoke                                 -> smoke=1
///   --<key>=<value>                         -> <key>=<value> ('-' -> '_')
///
/// so `bench_x --json-out /tmp/x.json` and `bench_x json_out=/tmp/x.json`
/// are equivalent.  Unknown positional tokens still throw ConfigError.
Config parse_bench_args(int argc, const char* const* argv);

/// Calibrate the Section 6 testbed (1-D topology only unless `all_topos`).
CalibrationResult calibrate_testbed(const Network& net,
                                    bool all_topos = false);

/// Availability snapshot with every processor idle (the paper benchmarks a
/// lightly loaded network).
AvailabilitySnapshot idle_snapshot(const Network& net);

/// The Table 2 column layout: the seven configurations the paper measures.
struct NamedConfig {
  std::string label;
  ProcessorConfig config;  // {sparc2, ipc}
};
std::vector<NamedConfig> table2_configs();

/// Measured elapsed time (ms) of a stencil variant under a configuration,
/// averaged over `runs` executions (compute jitter makes runs differ).
double measured_stencil_ms(const Network& net,
                           const apps::StencilConfig& cfg,
                           const ProcessorConfig& config, int runs = 3);

/// Format helper: fixed 1-decimal milliseconds.
std::string ms(double v);

/// Write a machine-readable BENCH_*.json artifact.  Deterministic by
/// construction (JsonValue renders members in insertion order with
/// shortest-round-trip doubles), so re-running a bench with identical
/// results produces a byte-identical file.
void write_bench_json(const std::string& path, const JsonValue& root);

/// Outcome of the exhaustive sweep's parallel-speedup gate.
enum class SpeedupGate {
  Pass,              ///< speedup met the per-thread floor
  Fail,              ///< multi-core host, floor missed
  SkippedSingleCore, ///< hardware_concurrency <= 1: no speedup possible
  SkippedSmoke,      ///< --smoke run: timings too short to be meaningful
};

/// The gate itself, separated from the bench so tests can pin the logic:
/// on a single-core host the gate is skipped (no wall-clock speedup is
/// physically possible); in smoke mode it is skipped (reduced reps);
/// otherwise it passes iff `speedup >= required_per_thread * effective`
/// where effective = min(threads, hardware_concurrency) -- asking 8
/// workers of a 2-core host for 6.4x would be a hardware test, not a
/// scheduler test.  Whenever >= 2 cores exist and smoke is off, the
/// result is Pass or Fail, never a skip.
SpeedupGate parallel_speedup_gate(unsigned hardware_concurrency, bool smoke,
                                  int threads, double speedup,
                                  double required_per_thread = 0.8);

/// JSON/console spelling of a gate outcome ("ok", "fail",
/// "skipped_single_core", "skipped_smoke").
const char* to_string(SpeedupGate gate);

/// Hardware concurrency as every bench gate sees it: the
/// NETPART_HW_CONCURRENCY environment variable when it parses as a
/// positive integer (tests and CI pin the gate's skip condition with it),
/// otherwise std::thread::hardware_concurrency().
unsigned detected_hardware_concurrency();

/// One gate decision with everything it was derived from, so a bench
/// reports the verdict and its inputs (meta fields, console line) from a
/// single evaluation instead of re-deriving the skip condition.
struct SpeedupEvaluation {
  SpeedupGate gate = SpeedupGate::SkippedSmoke;
  unsigned hardware_concurrency = 0;
  int effective_threads = 0;  ///< min(threads, hardware_concurrency)
  double required = 0.0;      ///< speedup floor the gate compared against
  bool ok = false;            ///< gate != Fail (skips do not fail a run)
};

/// The one code path from measured speedup to gate verdict: resolves
/// hardware concurrency via detected_hardware_concurrency() and applies
/// parallel_speedup_gate to it.
SpeedupEvaluation evaluate_parallel_speedup(bool smoke, int threads,
                                            double speedup,
                                            double required_per_thread = 0.8);

/// Pass/fail ledger for a bench's gate block, separating "gate failed"
/// from "gate skipped".  A gate either ran (require(): its verdict feeds
/// pass()) or was skipped with a recorded reason (skip(): its measured
/// value may still be reported, but it must not drive pass()).  pass() is
/// the AND over gates that ran -- a run whose only red mark is a skipped
/// wall-clock gate is a passing run, and `gates_skipped` says exactly what
/// was not checked and why.  Coverage tests pin this logic.
class GateSet {
 public:
  /// Record a gate that ran with its verdict.
  void require(const std::string& name, bool ok);
  /// Record a gate that was skipped and why (e.g. "skipped_single_core").
  void skip(const std::string& name, const std::string& reason);
  /// AND over gates that ran; vacuously true if every gate was skipped.
  bool pass() const { return pass_; }
  /// Names of gates that ran and failed, insertion order.
  const std::vector<std::string>& failed() const { return failed_; }
  /// JSON array of "name: reason" entries, insertion order -- the
  /// `gates_skipped` field of the bench's checks block.
  JsonValue skipped_json() const;

 private:
  bool pass_ = true;
  std::vector<std::string> failed_;
  std::vector<std::pair<std::string, std::string>> skipped_;
};

/// Per-phase telemetry for BENCH_*.json artifacts: snapshots the global
/// registry at construction, and each phase() call records the counter
/// deltas since the previous call under the given name.  Only changed
/// counters appear, name-ordered, so the artifact stays small and
/// deterministic.  Embed via `root.set("metrics", recorder.to_json())`.
class PhaseMetrics {
 public:
  PhaseMetrics();
  /// Close the window since the previous call (or construction) as `name`.
  void phase(const std::string& name);
  JsonValue to_json() const { return phases_; }

 private:
  obs::MetricsSnapshot last_;
  JsonValue phases_;
};

}  // namespace netpart::bench
