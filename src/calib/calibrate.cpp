#include "calib/calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <utility>

#include "analysis/race/annotations.hpp"
#include "topo/comm_cycle.hpp"
#include "util/error.hpp"
#include "util/fork_join.hpp"
#include "util/log.hpp"

namespace netpart {

namespace {

/// The grid check every public calibration entry point runs first: one
/// distinct message size leaves every fit in b singular.
void require_distinct_sizes(const CalibrationParams& params) {
  const std::vector<std::int64_t>& sizes = params.message_sizes;
  NP_REQUIRE(std::adjacent_find(sizes.begin(), sizes.end(),
                                std::not_equal_to<>()) != sizes.end(),
             "calibration needs >= 2 distinct message sizes");
}

/// Delivery time (ms) of a single src -> dst message on `net`, reset to
/// a fresh simulator's state on `stream` first.
double measure_delivery_ms(sim::NetSim& net, Rng stream, ProcessorRef src,
                           ProcessorRef dst, std::int64_t bytes) {
  net.reset(stream);
  sim::Engine& engine = net.engine();
  SimTime delivered = SimTime::zero();
  net.send(src, dst, bytes, [&] { delivered = engine.now(); });
  engine.run();
  return delivered.as_millis();
}

/// Benchmark one (cluster, topology) over the (p, b) grid, append its
/// samples, and fit Eq. 1.  The sweep runs every sample on one simulator,
/// reset before each sample to the state of a fresh one on a random
/// stream that depends only on (seed, cluster, p), so a sweep's output is
/// independent of which thread runs it and of every other sweep.  Each p
/// builds its cycle's message list once, and its message sizes reuse it.
Eq1Fit sweep_comm(const Network& network, const CalibrationParams& params,
                  ClusterId c, Topology topo,
                  std::vector<CommSample>& out) {
  const int size = network.cluster(c).size();
  const std::size_t grid =
      static_cast<std::size_t>(size - 1) * params.message_sizes.size();
  std::vector<Sample2D> samples;
  samples.reserve(grid);
  out.reserve(out.size() + grid);
  sim::Engine engine;
  sim::NetSim net(engine, network, params.sim_params, Rng(params.seed));
  // Rank i runs on processor i: the placement of p ranks is the first p
  // entries, grown one processor per p.
  Placement placement;
  placement.reserve(static_cast<std::size_t>(size));
  placement.push_back(ProcessorRef{c, 0});
  for (int p = 2; p <= size; ++p) {
    placement.push_back(ProcessorRef{c, p - 1});
    CommCycle cycle(topo, p);
    const Rng stream = Rng(params.seed)
                           .stream(static_cast<std::uint64_t>(c))
                           .stream(static_cast<std::uint64_t>(p));
    for (std::int64_t bytes : params.message_sizes) {
      net.reset(stream);
      const double cost =
          cycle.run(net, placement, bytes, params.cycles_per_sample)
              .elapsed_max.as_millis();
      samples.push_back(
          Sample2D{static_cast<double>(p), static_cast<double>(bytes), cost});
      out.push_back(CommSample{c, topo, p, bytes, cost});
    }
  }
  // A two-processor cluster yields a single p value, which cannot
  // identify the c2/c4 terms; fall back to a line in b at that p (the
  // only operating point the model will ever be evaluated near).
  bool multiple_p = false;
  for (const Sample2D& s : samples) {
    if (s.p != samples.front().p) multiple_p = true;
  }
  if (multiple_p) return fit_eq1(samples);
  std::vector<double> xs;
  std::vector<double> ys;
  for (const Sample2D& s : samples) {
    xs.push_back(s.b);
    ys.push_back(s.cost);
  }
  const LineFit line = fit_line(xs, ys);
  Eq1Fit fit;
  fit.c1 = line.intercept;
  fit.c3 = line.slope;
  fit.c2 = 0.0;
  fit.c4 = 0.0;
  fit.r2 = line.r2;
  return fit;
}

/// One independent unit of calibration work and what it produced: the
/// Eq. 1 sweep of (a, topology) when a == b, else the router and
/// coercion fits of the pair (a, b).
struct CalibrationTask {
  ClusterId a = 0;
  ClusterId b = 0;
  Topology topology = Topology::OneD;
  std::vector<CommSample> samples;
  Eq1Fit comm;
  LineFit router;
  LineFit coerce;
  std::exception_ptr error;
};

void run_task(const Network& network, const CalibrationParams& params,
              CalibrationTask& task) {
  try {
    if (task.a == task.b) {
      task.comm =
          sweep_comm(network, params, task.a, task.topology, task.samples);
    } else {
      task.router = benchmark_router(network, task.a, task.b, params);
      if (network.needs_coercion(task.a, task.b)) {
        task.coerce = benchmark_coercion(network, task.a, task.b, params);
      }
    }
  } catch (...) {
    task.error = std::current_exception();
  }
}

}  // namespace

LineFit benchmark_coercion(const Network& network, ClusterId a, ClusterId b,
                           const CalibrationParams& params) {
  NP_REQUIRE(a != b, "coercion benchmark needs two distinct clusters");
  require_distinct_sizes(params);
  std::vector<double> xs;
  std::vector<double> ys;
  if (!network.needs_coercion(a, b)) {
    // Same data format: the conversion routine is the identity.
    for (std::int64_t bytes : params.message_sizes) {
      xs.push_back(static_cast<double>(bytes));
      ys.push_back(0.0);
    }
    return fit_line(xs, ys);
  }
  // Time the receiver-side conversion routine standalone, as the paper's
  // offline coercion benchmark does.  The routine converts `bytes` bytes on
  // the destination host at its coercion rate.
  const ProcessorType& dst_type = network.cluster(b).type();
  for (std::int64_t bytes : params.message_sizes) {
    xs.push_back(static_cast<double>(bytes));
    ys.push_back((dst_type.coerce_per_byte * bytes).as_millis());
  }
  return fit_line(xs, ys);
}

LineFit benchmark_router(const Network& network, ClusterId a, ClusterId b,
                         const CalibrationParams& params) {
  NP_REQUIRE(a != b, "router benchmark needs two distinct clusters");
  require_distinct_sizes(params);
  const LineFit coerce = benchmark_coercion(network, a, b, params);

  // cross = init + occ_a + router + occ_b + recv (+ coerce); subtracting
  // the intra-cluster single-message times isolates the router up to a
  // constant, which the line fit absorbs into its intercept.  A singleton
  // cluster has no intra pair to measure; its occupancy then stays inside
  // the fit, overestimating the router conservatively.
  const bool can_intra_a = network.cluster(a).size() >= 2;
  const bool can_intra_b = network.cluster(b).size() >= 2;

  // Every delivery runs on one simulator, reset to the same stream.
  const Rng stream = Rng(params.seed).stream(0xD0);
  sim::Engine engine;
  sim::NetSim net(engine, network, params.sim_params, stream);
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::int64_t bytes : params.message_sizes) {
    const double cross = measure_delivery_ms(
        net, stream, ProcessorRef{a, 0}, ProcessorRef{b, 0}, bytes);
    const double intra_a =
        can_intra_a ? measure_delivery_ms(net, stream, ProcessorRef{a, 0},
                                          ProcessorRef{a, 1}, bytes)
                    : 0.0;
    const double intra_b =
        can_intra_b ? measure_delivery_ms(net, stream, ProcessorRef{b, 0},
                                          ProcessorRef{b, 1}, bytes)
                    : 0.0;
    const double coerce_ms =
        coerce.intercept + coerce.slope * static_cast<double>(bytes);
    xs.push_back(static_cast<double>(bytes));
    ys.push_back(cross - intra_a - intra_b - coerce_ms);
  }
  return fit_line(xs, ys);
}

CalibrationResult calibrate(const Network& network,
                            const CalibrationParams& params) {
  return calibrate_with_workers(
      network, params,
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
}

CalibrationResult calibrate_with_workers(const Network& network,
                                         const CalibrationParams& params_in,
                                         int workers) {
  CalibrationParams params = params_in;
  if (params.topologies.empty()) params.topologies = all_topologies();
  require_distinct_sizes(params);
  NP_REQUIRE(params.cycles_per_sample >= 1,
             "calibration needs >= 1 cycle per sample");
  NP_REQUIRE(workers >= 1, "calibration needs >= 1 worker");

  // Tasks in the serial order: every (cluster, topology) sweep, cluster-
  // major, then every cluster pair a < b.
  const ClusterId k = network.num_clusters();
  std::vector<CalibrationTask> tasks;
  for (ClusterId c = 0; c < k; ++c) {
    if (network.cluster(c).size() < 2) continue;
    for (Topology topo : params.topologies) {
      CalibrationTask& sweep = tasks.emplace_back();
      sweep.a = c;
      sweep.b = c;
      sweep.topology = topo;
    }
  }
  for (ClusterId a = 0; a < k; ++a) {
    for (ClusterId b = a + 1; b < k; ++b) {
      CalibrationTask& pair = tasks.emplace_back();
      pair.a = a;
      pair.b = b;
    }
  }

  // Workers claim tasks off one cursor; each task writes only its own
  // slot, so the claim order changes nothing but the wall time.
  std::atomic<std::size_t> cursor{0};
  const int pool = static_cast<int>(std::clamp<std::size_t>(
      tasks.size(), 1, static_cast<std::size_t>(workers)));
  fork_join(pool, &cursor, "calib.pool", [&](int) {
    for (;;) {
      NP_ATOMIC_RMW(&cursor, "calib.cursor");
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) break;
      NP_WRITE(&tasks[i], "calib.task_slot");
      run_task(network, params, tasks[i]);
    }
  });

  // Merge fits, samples, log lines and the first error in the serial
  // order, so the result is bit-identical at every worker count.
  CalibrationResult result{CostModelDb(k), {}};
  auto task = tasks.begin();
  for (ClusterId c = 0; c < k; ++c) {
    if (network.cluster(c).size() < 2) {
      NP_LOG_WARN << "cluster " << c << " has a single processor; skipping "
                  << "intra-cluster communication calibration";
      continue;
    }
    for (Topology topo : params.topologies) {
      NP_READ(&*task, "calib.task_slot");
      if (task->error) std::rethrow_exception(task->error);
      result.samples.insert(result.samples.end(), task->samples.begin(),
                            task->samples.end());
      const Eq1Fit& fit = task->comm;
      NP_LOG_INFO << "calibrated cluster " << c << " " << to_string(topo)
                  << ": c1=" << fit.c1 << " c2=" << fit.c2
                  << " c3=" << fit.c3 << " c4=" << fit.c4
                  << " (r2=" << fit.r2 << ")";
      result.db.set_comm(c, topo, fit);
      ++task;
    }
  }
  for (; task != tasks.end(); ++task) {
    NP_READ(&*task, "calib.task_slot");
    if (task->error) std::rethrow_exception(task->error);
    result.db.set_router(task->a, task->b, task->router);
    if (network.needs_coercion(task->a, task->b)) {
      result.db.set_coerce(task->a, task->b, task->coerce);
    }
  }
  return result;
}

}  // namespace netpart
