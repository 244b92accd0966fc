// e2e_bench: one workload of the end-to-end benchmark, in one process.
//
//   e2e_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke] [--out DIR]
//
// Untraced (--trace 0): a warm-up, then a closed loop cut into half-second
// stretches until S seconds have passed, with throw-away set-ups between
// stretches; report the end-to-end metrics, their timings scaled by
// host-speed probes (see Plan).  Traced (--trace 1): the per-layer metrics
// (see layers.cpp).  Both modes check the program's outputs against an
// oracle.
// Progress goes to stderr; the last line of stdout is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit status is 1 when "correct" is false.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "e2e.hpp"
#include "util/error.hpp"

namespace netpart::e2e {
namespace {

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError("missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out") {
      o.out_dir = value();
    } else {
      throw ConfigError("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw ConfigError("--workload is required");
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) {
    throw ConfigError("--seconds must be in [1, 600]");
  }
  return o;
}

/// Peak resident set of this process image, MB.  Read from VmHWM rather
/// than getrusage: ru_maxrss survives exec, so it would report the
/// launching shell's or interpreter's peak when that is larger.
double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw LogicError("no VmHWM in /proc/self/status");
}

/// The closed loop runs as half-second stretches, each with freshly started
/// client threads, until --seconds have passed since the run began.  A
/// throw-away set-up follows a stretch while set-ups have taken less than
/// kSetupShare of the stretches' time: after most stretches on the service
/// workloads, every dozen or so on offline_plan.
///
/// A shared host's speed drifts by up to 1.7x over seconds to minutes, all
/// vCPUs together, so timings are scaled by a probe of the same kind of
/// work taken beside them.  A set-up is scaled by the allocation probe just
/// before it.  The closed loop's metrics are the medians over its stretches,
/// scaled by the median of the cache probe taken before and after every
/// stretch: one probe reading is too noisy to scale one half-second stretch
/// by, but their median over a run follows the host's speed from run to run.
/// A probe's reference time is its median on the reference host, so a
/// scaled timing reads as it would have there.
constexpr double kSetupShare = 0.1;
constexpr double kCacheProbeRefUs = 115.0;
constexpr double kAllocProbeRefUs = 870.0;

struct Plan {
  double warm_s;
  double stretch_s;
  int max_stretches;
};

Plan plan_for(const RunOptions& opts) {
  if (opts.smoke) return {0.2, 1.0, 1};
  return {1.0, 0.5, 1 << 20};
}

JsonValue json_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double x : v) a.push(x);
  return a;
}

int run(const RunOptions& opts) {
  std::unique_ptr<Workload> w = make_workload(opts.workload, opts.seed);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  std::vector<double> setup_s, setup_probe_us, calibrate_ms, preflight_ms;
  const auto setup = [&](bool keep) {
    setup_probe_us.push_back(alloc_probe_us());
    const SetupTimes t = w->setup(keep);
    setup_s.push_back(t.total_s);
    calibrate_ms.push_back(t.calibrate_ms);
    preflight_ms.push_back(t.preflight_ms);
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto tally = [&](const PhaseStats& p) {
    attempted += p.ok + p.failed;
    failed += p.failed;
  };
  std::vector<Metric> metrics;
  JsonValue detail = JsonValue::object();
  if (opts.trace) {
    for (int i = 0; i < (opts.smoke ? 2 : 5); ++i) setup(i == 0);
    metrics = run_layers(*w, opts, opts.smoke ? 2.0 : opts.seconds, attempted,
                         failed);
    metrics.push_back({"calib.calibrate_ms", median(calibrate_ms), "ms"});
    metrics.push_back({"analysis.preflight_ms", median(preflight_ms), "ms"});
  } else {
    const Plan plan = plan_for(opts);
    const StepFn steps = steps_of(*w);
    setup(true);
    tally(run_closed(w->clients(), plan.warm_s, steps));
    setup(false);
    PhaseStats closed;
    // Per stretch, as measured, and the cache probe's mean reading before
    // and after it.
    std::vector<double> raw_rps, raw_p50_us, raw_cpu_us, probe_us;
    const auto stretch_time = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(plan.stretch_s));
    while (raw_rps.empty() ||
           (static_cast<int>(raw_rps.size()) < plan.max_stretches &&
            Clock::now() + stretch_time < deadline)) {
      const double before = cache_probe_us();
      const PhaseStats s = run_closed(w->clients(), plan.stretch_s, steps);
      probe_us.push_back(0.5 * (before + cache_probe_us()));
      raw_rps.push_back(s.rps());
      raw_p50_us.push_back(s.latency.quantile_ns(0.5) / 1e3);
      raw_cpu_us.push_back(s.cpu_us_per_op());
      tally(s);
      closed.append(s);
      if (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
          kSetupShare * closed.wall_s) {
        setup(false);
      }
    }
    std::vector<double> setup_scaled;
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      setup_scaled.push_back(setup_s[i] * kAllocProbeRefUs / setup_probe_us[i]);
    }
    const double slow = median(probe_us) / kCacheProbeRefUs;
    metrics = {
        {"setup_s", median(setup_scaled), "s"},
        {"throughput_rps", median(raw_rps) * slow, "req/s"},
        {"latency_p50_us", median(raw_p50_us) / slow, "us"},
        {"cpu_us_per_op", median(raw_cpu_us) / slow, "us"},
        {"rss_peak_mb", rss_peak_mb(), "MB"},
    };
    detail.set("setups_s", json_array(setup_s))
        .set("setup_alloc_probe_us", json_array(setup_probe_us));
    detail.set("closed",
               JsonValue::object()
                   .set("requests", closed.ok)
                   .set("stretch_rps", json_array(raw_rps))
                   .set("stretch_p50_us", json_array(raw_p50_us))
                   .set("stretch_cpu_us_per_op", json_array(raw_cpu_us))
                   .set("stretch_cache_probe_us", json_array(probe_us))
                   .set("pooled_p50_us", closed.latency.quantile_ns(0.5) / 1e3)
                   .set("pooled_p99_us", closed.latency.quantile_ns(0.99) / 1e3)
                   .set("p99_tail_samples", closed.latency.beyond(0.99))
                   .set("max_us",
                        static_cast<double>(closed.latency.max_ns()) / 1e3));
  }

  const Verdict v = w->verify();
  failed += v.mismatches;
  const bool correct = failed == 0 && attempted > 0;
  if (!opts.trace) {
    const double attempts =
        static_cast<double>(std::max<std::uint64_t>(1, attempted));
    metrics.push_back({"success_rate",
                       1.0 - static_cast<double>(failed) / attempts,
                       "fraction"});
    metrics.push_back({"tc_ratio", v.tc_ratio, "ratio"});
  }
  if (!v.first_error.empty()) {
    std::fprintf(stderr, "%s: CORRECTNESS: %s\n", w->name(),
                 v.first_error.c_str());
  }
  std::fprintf(stderr, "%s: verified %llu sampled results, %llu mismatches\n",
               w->name(), static_cast<unsigned long long>(v.checked),
               static_cast<unsigned long long>(v.mismatches));

  JsonValue out = JsonValue::object();
  for (const Metric& m : metrics) {
    out.set(m.name, JsonValue::object().set("value", m.value).set("unit", m.unit));
  }
  JsonValue result = JsonValue::object()
                         .set("correct", correct)
                         .set("attempted", attempted)
                         .set("failed", failed)
                         .set("metrics", std::move(out));
  if (!opts.out_dir.empty()) {
    detail.set("verified", v.checked).set("mismatches", v.mismatches);
    JsonValue file = result;
    file.set("workload", w->name())
        .set("seed", opts.seed)
        .set("trace", opts.trace)
        .set("detail", std::move(detail));
    const std::string path = opts.out_dir + "/" + w->name() +
                             (opts.trace ? ".traced.json" : ".json");
    std::ofstream f(path);
    NP_REQUIRE(f.good(), "cannot write " + path);
    f << file.dump(2);
  }
  // A wrong answer is reported twice: through "correct", and by the exit
  // status, so any caller of this binary or of run.sh sees it.
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace netpart::e2e

int main(int argc, char** argv) {
  try {
    return netpart::e2e::run(netpart::e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
