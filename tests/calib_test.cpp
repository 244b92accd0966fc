// Tests for the calibration pipeline and the cost-model database.
// CalibrationThreadedTest matches the tsan test preset's filter, so its
// concurrent calibrations also run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "calib/calibrate.hpp"
#include "calib/model_io.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "sim/netsim.hpp"
#include "topo/comm_cycle.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  static const CalibrationResult& testbed_calibration() {
    static const CalibrationResult result = [] {
      CalibrationParams params;
      params.topologies = {Topology::OneD, Topology::Broadcast};
      return calibrate(presets::paper_testbed(), params);
    }();
    return result;
  }
};

TEST_F(CalibrationTest, FitsHaveExcellentQuality) {
  const CalibrationResult& cal = testbed_calibration();
  for (ClusterId c = 0; c < 2; ++c) {
    for (Topology t : {Topology::OneD, Topology::Broadcast}) {
      ASSERT_TRUE(cal.db.has_comm(c, t));
      EXPECT_GT(cal.db.comm_fit(c, t).r2, 0.99)
          << "cluster " << c << " " << to_string(t);
    }
  }
}

TEST_F(CalibrationTest, ConstantsNearPaperValues) {
  // Section 6: T_comm[C1,1-D] ~ (-.0055 + .00283 P)b + 1.1 P and
  // T_comm[C2,1-D] ~ (-.0123 + .00457 P)b + 1.9 P.  The testbed presets
  // are calibrated to land near these; allow 15%.
  const Eq1Fit& c1 = testbed_calibration().db.comm_fit(0, Topology::OneD);
  EXPECT_NEAR(c1.c2, 1.1, 0.17);
  EXPECT_NEAR(c1.c4, 0.00283, 0.0004);
  const Eq1Fit& c2 = testbed_calibration().db.comm_fit(1, Topology::OneD);
  EXPECT_NEAR(c2.c2, 1.9, 0.29);
  EXPECT_NEAR(c2.c4, 0.00457, 0.0007);
}

TEST_F(CalibrationTest, SlowerClusterCommunicatesSlower) {
  // "Communication is faster on a cluster of Sun4's than Sun3's."
  const CostModelDb& db = testbed_calibration().db;
  for (double p : {2.0, 4.0, 6.0}) {
    EXPECT_LT(db.comm_ms(0, Topology::OneD, 2400, p),
              db.comm_ms(1, Topology::OneD, 2400, p));
  }
}

TEST_F(CalibrationTest, RouterFitNearConfiguredDelay) {
  const LineFit fit = benchmark_router(presets::paper_testbed(), 0, 1,
                                       CalibrationParams{});
  EXPECT_NEAR(fit.slope, 0.0006, 0.0002);  // paper: .0006 ms/byte
  EXPECT_GT(fit.r2, 0.95);
}

TEST_F(CalibrationTest, CoercionZeroForSameFormatLinearOtherwise) {
  const LineFit same = benchmark_coercion(presets::paper_testbed(), 0, 1,
                                          CalibrationParams{});
  EXPECT_DOUBLE_EQ(same.slope, 0.0);
  const Network mixed = presets::coercion_testbed();
  const LineFit cross = benchmark_coercion(mixed, 0, 1,
                                           CalibrationParams{});
  EXPECT_NEAR(cross.slope,
              mixed.cluster(1).type().coerce_per_byte.as_millis(), 1e-9);
}

TEST_F(CalibrationTest, SamplesCoverTheGrid) {
  const CalibrationResult& cal = testbed_calibration();
  // 2 clusters x 2 topologies x p in 2..6 x 6 sizes.
  EXPECT_EQ(cal.samples.size(), 2u * 2u * 5u * 6u);
  for (const CommSample& s : cal.samples) {
    EXPECT_GT(s.cost_ms, 0.0);
  }
}

TEST_F(CalibrationTest, TwoProcessorClusterGetsReducedFit) {
  NetworkBuilder b;
  b.add_cluster("pair", presets::sparc2(), 2);
  b.add_cluster("many", presets::sun_ipc(), 4);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(b.build(), params);
  const Eq1Fit& fit = cal.db.comm_fit(0, Topology::OneD);
  EXPECT_EQ(fit.c2, 0.0);  // p terms unidentifiable from a single p
  EXPECT_EQ(fit.c4, 0.0);
  EXPECT_GT(fit.c3, 0.0);  // but the byte slope is real
  EXPECT_GT(cal.db.comm_ms(0, Topology::OneD, 2400, 2), 0.0);
}

TEST_F(CalibrationTest, SingletonClusterSkipped) {
  NetworkBuilder b;
  b.add_cluster("solo", presets::sparc2(), 1);
  b.add_cluster("many", presets::sun_ipc(), 3);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(b.build(), params);
  EXPECT_FALSE(cal.db.has_comm(0, Topology::OneD));
  EXPECT_TRUE(cal.db.has_comm(1, Topology::OneD));
}

// --- bit-for-bit goldens ---------------------------------------------------
//
// tests/data/calibration/ holds, for each network below, the serial
// calibrator's cost model (<network>.costmodel, save_cost_model text) and
// an FNV-1a over its samples (samples.txt).  calibrate() must reproduce
// both bit for bit at every worker count: the fits feed every decision,
// golden and sim-time number downstream.

Network service_network() {
  Rng rng(7);
  return presets::random_network(rng, 8, 16);
}

/// A singleton cluster: its sweeps are skipped with a warning, and its
/// router pair still calibrates.
Network singleton_network() {
  NetworkBuilder b;
  b.add_cluster("solo", presets::sparc2(), 1);
  b.add_cluster("many", presets::sun_ipc(), 3);
  return b.build();
}

CalibrationParams default_params() { return {}; }

/// Lossy links: fragments are lost and retransmitted, so the cycles of a
/// sample differ and every one is simulated from its sample's stream.
CalibrationParams lossy_params() {
  CalibrationParams params;
  params.sim_params.loss_rate = 0.05;
  params.sim_params.rto = SimTime::millis(2);
  return params;
}

struct GoldenNetwork {
  const char* name;
  Network (*build)();
  CalibrationParams (*params)() = default_params;
};

constexpr GoldenNetwork kGoldenNetworks[] = {
    {"paper_testbed", presets::paper_testbed},
    {"fig1_network", presets::fig1_network},
    {"coercion_testbed", presets::coercion_testbed},
    {"metasystem", presets::metasystem},
    {"service_network", service_network},
    {"singleton", singleton_network},
    {"lossy_testbed", presets::paper_testbed, lossy_params},
};

const std::string kGoldenDir =
    std::string(NETPART_SOURCE_DIR) + "/tests/data/calibration/";

std::string read_golden(const std::string& file) {
  std::ifstream in(kGoldenDir + file);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct SampleGolden {
  std::size_t count = 0;
  std::uint64_t fnv = 0;
};

/// samples.txt: "<network> <samples> <fnv1a hex>" per line, '#' comments.
std::map<std::string, SampleGolden> sample_goldens() {
  std::map<std::string, SampleGolden> goldens;
  std::istringstream lines(read_golden("samples.txt"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    SampleGolden golden;
    fields >> name >> golden.count >> std::hex >> golden.fnv;
    goldens[name] = golden;
  }
  return goldens;
}

std::uint64_t samples_fnv(const std::vector<CommSample>& samples) {
  Fnv1a h;
  for (const CommSample& s : samples) {
    h.i32(s.cluster)
        .i32(static_cast<std::int32_t>(s.topology))
        .i32(s.p)
        .i64(s.bytes)
        .u64(std::bit_cast<std::uint64_t>(s.cost_ms));
  }
  return h.value();
}

void expect_golden(const std::string& name, const CalibrationResult& got) {
  static const std::map<std::string, SampleGolden> goldens = sample_goldens();
  const auto it = goldens.find(name);
  ASSERT_NE(it, goldens.end()) << name << " missing from samples.txt";
  EXPECT_EQ(save_cost_model(got.db), read_golden(name + ".costmodel"))
      << name;
  EXPECT_EQ(got.samples.size(), it->second.count) << name;
  EXPECT_EQ(samples_fnv(got.samples), it->second.fnv) << name;
}

TEST_F(CalibrationTest, MatchesTheGoldenBitForBit) {
  for (const GoldenNetwork& g : kGoldenNetworks) {
    expect_golden(g.name, calibrate(g.build(), g.params()));
  }
}

TEST_F(CalibrationTest, GoldenHoldsAtEveryWorkerCount) {
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const GoldenNetwork& g : kGoldenNetworks) {
    const Network net = g.build();
    for (int workers : {1, 2, 3, hardware, hardware + 5}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      expect_golden(g.name,
                    calibrate_with_workers(net, g.params(), workers));
    }
  }
}

TEST_F(CalibrationTest, TaskErrorsReachTheCaller) {
  CalibrationParams params;
  params.message_sizes = {64, -1};  // NetSim::send rejects it in a task
  EXPECT_THROW(calibrate_with_workers(presets::fig1_network(), params, 4),
               InvalidArgument);
  EXPECT_THROW(calibrate_with_workers(presets::fig1_network(), {}, 0),
               InvalidArgument);
}

TEST_F(CalibrationTest, GridNeedsTwoDistinctMessageSizes) {
  // One distinct size leaves every fit in b singular; that is the
  // caller's mistake, rejected by every public entry point before any
  // benchmark runs -- the per-pair benchmarks too, on a same-format pair
  // (paper testbed) and on one that needs coercion.
  const Network paper = presets::paper_testbed();
  const Network mixed = presets::coercion_testbed();
  ASSERT_TRUE(mixed.needs_coercion(0, 1));
  for (const std::vector<std::int64_t>& sizes :
       {std::vector<std::int64_t>{64, 64},
        std::vector<std::int64_t>{0, 0, 0}, std::vector<std::int64_t>{64},
        std::vector<std::int64_t>{}}) {
    CalibrationParams params;
    params.message_sizes = sizes;
    EXPECT_THROW(calibrate_with_workers(presets::fig1_network(), params, 2),
                 InvalidArgument)
        << sizes.size() << " sizes";
    for (const Network* net : {&paper, &mixed}) {
      EXPECT_THROW(benchmark_router(*net, 0, 1, params), InvalidArgument)
          << sizes.size() << " sizes";
      EXPECT_THROW(benchmark_coercion(*net, 0, 1, params), InvalidArgument)
          << sizes.size() << " sizes";
    }
  }
  CalibrationParams repeated;
  repeated.topologies = {Topology::OneD};
  repeated.message_sizes = {64, 64, 240};
  EXPECT_NO_THROW(
      calibrate_with_workers(presets::fig1_network(), repeated, 2));
  for (const Network* net : {&paper, &mixed}) {
    EXPECT_NO_THROW(benchmark_router(*net, 0, 1, repeated));
    EXPECT_NO_THROW(benchmark_coercion(*net, 0, 1, repeated));
  }
}

// --- the at-rest shortcut ---------------------------------------------------
//
// Each sample of a sweep, re-run the way calibrate() runs it: on one
// simulator reset to the sample's stream.  Counting the engine's events
// shows how many cycles run_comm_cycles simulated.

struct SampleRun {
  const Network& network;
  const CalibrationParams& params;
  sim::Engine engine;
  sim::NetSim net;

  SampleRun(const Network& n, const CalibrationParams& p)
      : network(n), params(p), net(engine, n, p.sim_params, Rng(p.seed)) {}

  /// Events executed by `cycles` cycles of the sample (c, topo, p, bytes).
  std::uint64_t events(ClusterId c, Topology topo, int p, std::int64_t bytes,
                       int cycles, bool traced) {
    net.reset(Rng(params.seed)
                  .stream(static_cast<std::uint64_t>(c))
                  .stream(static_cast<std::uint64_t>(p)));
    if (traced) net.set_tracer([](const sim::TraceEvent&) {});
    Placement placement;
    for (ProcessorIndex i = 0; i < p; ++i) {
      placement.push_back(ProcessorRef{c, i});
    }
    run_comm_cycles(net, placement, topo, bytes, cycles);
    return engine.events_executed();
  }

  /// Calls `check(c, topo, p, bytes)` for every sample of the sweeps.
  template <typename Check>
  void each_sample(Check check) {
    for (ClusterId c = 0; c < network.num_clusters(); ++c) {
      for (Topology topo : all_topologies()) {
        for (int p = 2; p <= network.cluster(c).size(); ++p) {
          for (std::int64_t bytes : params.message_sizes) {
            check(c, topo, p, bytes);
          }
        }
      }
    }
  }
};

TEST_F(CalibrationTest, EveryLosslessSampleSimulatesOneCycle) {
  for (const GoldenNetwork& g : kGoldenNetworks) {
    const CalibrationParams params = g.params();
    if (params.sim_params.loss_rate > 0.0) continue;
    ASSERT_GT(params.cycles_per_sample, 1);
    const Network net = g.build();
    SampleRun run(net, params);
    std::size_t samples = 0;
    std::size_t repeated = 0;
    run.each_sample([&](ClusterId c, Topology topo, int p,
                        std::int64_t bytes) {
      ++samples;
      const std::uint64_t one = run.events(c, topo, p, bytes, 1, false);
      const std::uint64_t all =
          run.events(c, topo, p, bytes, params.cycles_per_sample, false);
      if (all != one) ++repeated;
    });
    EXPECT_EQ(samples, sample_goldens().at(g.name).count) << g.name;
    EXPECT_EQ(repeated, 0u) << g.name << ": of " << samples << " samples";
  }
}

TEST_F(CalibrationTest, EveryLossySampleSimulatesEveryCycle) {
  // A tracer makes run_comm_cycles simulate every cycle; a lossy sample
  // must execute exactly the events its traced run does.
  const CalibrationParams params = lossy_params();
  const Network net = presets::paper_testbed();
  SampleRun run(net, params);
  std::size_t shortcut = 0;
  std::size_t lost = 0;
  run.each_sample([&](ClusterId c, Topology topo, int p,
                      std::int64_t bytes) {
    const std::uint64_t untraced =
        run.events(c, topo, p, bytes, params.cycles_per_sample, false);
    if (run.net.retransmissions() > 0) ++lost;
    const std::uint64_t traced =
        run.events(c, topo, p, bytes, params.cycles_per_sample, true);
    if (untraced != traced) ++shortcut;
  });
  EXPECT_GT(lost, 0u) << "no sample lost a fragment";
  EXPECT_EQ(shortcut, 0u);
}

TEST_F(CalibrationTest, ServiceNetworkCalibrationAllocationsAreRatcheted) {
  // One single-worker calibrate() of the e2e service network allocated
  // 67,614 times when every sample built its own simulator and simulated
  // every cycle, and 45,208 when each task reused one reset simulator and
  // a lossless sample simulated one cycle but rebuilt its cycle's message
  // list; each p now builds its CommCycle once.  Tightening the bound is
  // allowed; loosening it is not.
  constexpr std::uint64_t kBound = 6274;
  const Network net = service_network();
  calibrate_with_workers(net, {}, 1);  // first-use statics
  const std::uint64_t before = heap_allocations();
  const CalibrationResult cal = calibrate_with_workers(net, {}, 1);
  const std::uint64_t allocated = heap_allocations() - before;
  EXPECT_EQ(cal.samples.size(), 2250u);
  EXPECT_LE(allocated, kBound);
}

TEST_F(CalibrationTest, WarmSweepSampleAllocatesNothing) {
  // A sweep runs every message size of a p through one CommCycle on one
  // reset simulator.  Once a sample has grown the simulator's tables and
  // the cycle's buffers, a sample allocates nothing: here on the service
  // network's largest cluster, for every topology.
  const Network net = service_network();
  const CalibrationParams params;
  ClusterId widest = 0;
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    if (net.cluster(c).size() > net.cluster(widest).size()) widest = c;
  }
  const int p = net.cluster(widest).size();
  ASSERT_GE(p, 8);
  Placement placement;
  for (ProcessorIndex i = 0; i < p; ++i) {
    placement.push_back(ProcessorRef{widest, i});
  }
  const Rng stream = Rng(params.seed)
                         .stream(static_cast<std::uint64_t>(widest))
                         .stream(static_cast<std::uint64_t>(p));
  sim::Engine engine;
  sim::NetSim net_sim(engine, net, params.sim_params, stream);
  for (Topology topo : all_topologies()) {
    SCOPED_TRACE(to_string(topo));
    CommCycle cycle(topo, p);
    net_sim.reset(stream);
    cycle.run(net_sim, placement, params.message_sizes.front(),
              params.cycles_per_sample);
    for (std::int64_t bytes : params.message_sizes) {
      const std::uint64_t before = heap_allocations();
      net_sim.reset(stream);
      const double cost =
          cycle.run(net_sim, placement, bytes, params.cycles_per_sample)
              .elapsed_max.as_millis();
      EXPECT_EQ(heap_allocations() - before, 0u) << bytes << " bytes";
      EXPECT_GT(cost, 0.0);
    }
  }
}

// Calibrations at once, each on its own worker pool: the pools share
// nothing but the process, so each still matches its golden.
TEST(CalibrationThreadedTest, ConcurrentCalibrationsMatchTheGolden) {
  std::optional<CalibrationResult> testbed;
  std::optional<CalibrationResult> meta;
  std::optional<CalibrationResult> lossy;
  std::thread a([&] { testbed = calibrate(presets::paper_testbed()); });
  std::thread b([&] { meta = calibrate(presets::metasystem()); });
  std::thread c(
      [&] { lossy = calibrate(presets::paper_testbed(), lossy_params()); });
  a.join();
  b.join();
  c.join();
  expect_golden("paper_testbed", *testbed);
  expect_golden("metasystem", *meta);
  expect_golden("lossy_testbed", *lossy);
}

TEST(CostModelDbTest, AbsoluteValueFixup) {
  // The paper: "for P2 = 2, T_comm ... may take on negative values; the
  // absolute value ... is a very good approximation".
  CostModelDb db(1);
  Eq1Fit fit;
  fit.c1 = 0.0;
  fit.c2 = 1.9;
  fit.c3 = -0.0123;
  fit.c4 = 0.00457;
  db.set_comm(0, Topology::OneD, fit);
  // At P2 = 2 and the paper's largest message the fit dips negative.
  const double raw = fit.evaluate(4800.0, 2.0);
  EXPECT_LT(raw, 0.0);
  EXPECT_DOUBLE_EQ(db.comm_ms(0, Topology::OneD, 4800.0, 2.0), -raw);
}

TEST(CostModelDbTest, SingleProcessorCostsNothing) {
  CostModelDb db(1);
  db.set_comm(0, Topology::OneD, Eq1Fit{1.0, 1.0, 0.001, 0.001, 1.0});
  EXPECT_DOUBLE_EQ(db.comm_ms(0, Topology::OneD, 5000, 1.0), 0.0);
}

TEST(CostModelDbTest, MissingFitsThrow) {
  CostModelDb db(2);
  EXPECT_THROW(db.comm_fit(0, Topology::OneD), InvalidArgument);
  EXPECT_THROW(db.comm_ms(0, Topology::OneD, 100, 4), InvalidArgument);
  EXPECT_THROW(db.router_ms(0, 1, 100), InvalidArgument);
  EXPECT_DOUBLE_EQ(db.router_ms(0, 0, 100), 0.0);  // same cluster: no hop
  EXPECT_DOUBLE_EQ(db.coerce_ms(0, 1, 100), 0.0);  // absent fit: no cost
}

TEST(CostModelDbTest, PairSlotsAreSymmetric) {
  CostModelDb db(3);
  LineFit fit;
  fit.slope = 0.001;
  db.set_router(2, 1, fit);
  EXPECT_DOUBLE_EQ(db.router_ms(1, 2, 1000), 1.0);
  EXPECT_DOUBLE_EQ(db.router_ms(2, 1, 1000), 1.0);
}

}  // namespace
}  // namespace netpart
