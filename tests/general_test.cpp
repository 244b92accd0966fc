// Tests for the general (multi-start local search) partitioner.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/general.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

struct Fixture {
  Network net;
  CalibrationResult cal;
  AvailabilitySnapshot snap;

  explicit Fixture(Network n)
      : net(std::move(n)),
        cal([&] {
          CalibrationParams params;
          params.topologies = {Topology::OneD};
          return calibrate(net, params);
        }()),
        snap(gather_availability(net,
                                 make_managers(net, AvailabilityPolicy{}))) {
  }
};

ComputationSpec stencil(int n) {
  return apps::make_stencil_spec(
      apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
}

TEST(GeneralPartitionerTest, NeverWorseThanLocalityHeuristic) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Fixture f(presets::random_network(rng, 4, 6));
    const ComputationSpec spec = stencil(900);
    CycleEstimator est(f.net, f.cal.db, spec);
    const PartitionResult heur = partition(est, f.snap);
    const PartitionResult gen = general_partition(est, f.snap);
    EXPECT_LE(gen.estimate.t_c_ms, heur.estimate.t_c_ms + 1e-9)
        << "seed " << seed;
  }
}

TEST(GeneralPartitionerTest, MatchesExhaustiveOnSmallNetworks) {
  int matched = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Fixture f(presets::random_network(rng, 3, 5));
    const ComputationSpec spec = stencil(1200);
    CycleEstimator est(f.net, f.cal.db, spec);
    const PartitionResult gen = general_partition(est, f.snap);
    const PartitionResult exh = exhaustive_partition(est, f.snap);
    EXPECT_GE(gen.estimate.t_c_ms, exh.estimate.t_c_ms - 1e-9);
    if (gen.estimate.t_c_ms <= exh.estimate.t_c_ms * 1.001) ++matched;
  }
  // Local search with diverse starts should find the optimum nearly
  // always on these small instances.
  EXPECT_GE(matched, 7);
}

TEST(GeneralPartitionerTest, PolynomialCostOnLargeNetworks) {
  // On a 6-cluster network the exhaustive space has prod(N_i + 1)
  // configurations (tens of thousands); the multi-start search stays in
  // the hundreds.  (On tiny spaces exhaustive is cheaper -- the general
  // search exists for the spaces where it is not.)
  Rng rng(11);
  Fixture f(presets::random_network(rng, 6, 8));
  const ComputationSpec spec = stencil(2400);
  CycleEstimator est(f.net, f.cal.db, spec);
  std::uint64_t space = 1;
  for (int n : f.snap.available) {
    space *= static_cast<std::uint64_t>(n + 1);
  }
  ASSERT_GT(space, 10000u);
  const PartitionResult gen = general_partition(est, f.snap);
  EXPECT_LT(gen.evaluations, space / 10);
  EXPECT_LT(gen.evaluations, 2000u);
}

TEST(GeneralPartitionerTest, AgreesWithHeuristicOnPaperTestbed) {
  Fixture f(presets::paper_testbed());
  for (const int n : {60, 300, 1200}) {
    const ComputationSpec spec = stencil(n);
    CycleEstimator est(f.net, f.cal.db, spec);
    const PartitionResult gen = general_partition(est, f.snap);
    const PartitionResult exh = exhaustive_partition(est, f.snap);
    EXPECT_NEAR(gen.estimate.t_c_ms, exh.estimate.t_c_ms,
                1e-9 + 0.001 * exh.estimate.t_c_ms)
        << "N=" << n;
  }
}

TEST(GeneralPartitionerTest, DeterministicForFixedSeed) {
  Fixture f(presets::fig1_network());
  const ComputationSpec spec = stencil(600);
  CycleEstimator est(f.net, f.cal.db, spec);
  GeneralPartitionOptions options;
  options.seed = 42;
  const PartitionResult a = general_partition(est, f.snap, options);
  const PartitionResult b = general_partition(est, f.snap, options);
  EXPECT_EQ(a.config, b.config);
}

TEST(GeneralPartitionerTest, RespectsAvailability) {
  Fixture f(presets::paper_testbed());
  const ComputationSpec spec = stencil(1200);
  CycleEstimator est(f.net, f.cal.db, spec);
  AvailabilitySnapshot snap;
  snap.available = {3, 2};
  const PartitionResult r = general_partition(est, snap);
  EXPECT_LE(r.config[0], 3);
  EXPECT_LE(r.config[1], 2);
  AvailabilitySnapshot none;
  none.available = {0, 0};
  EXPECT_THROW(general_partition(est, none), InvalidArgument);
}

// The winners of a seeded problem set.  Entries 1-16 were recorded before
// the climb stopped re-scoring the configuration it had just left, and
// entries 17-20 (9 and 10 clusters, so a climb round spans two lane
// groups) before the climb's rounds were scored as estimate_moves lanes:
// neither change may move a winner's configuration, its T_c bits or the
// search's evaluation count.
ComputationSpec golden_spec(std::uint64_t seed) {
  const int n = 300 + 150 * static_cast<int>(seed);
  switch (seed % 4) {
    case 0:
      return stencil(n);
    case 1:
      return apps::make_stencil_spec(
          apps::StencilConfig{.n = n, .iterations = 10, .overlap = true});
    case 2:
      return apps::make_gauss_spec(apps::GaussConfig{.n = n / 4});
    default:
      return apps::make_particle_spec(
          apps::ParticleConfig{.count = 8 * n, .iterations = 10});
  }
}

struct GoldenWinner {
  int clusters;
  ProcessorConfig config;
  std::uint64_t t_c_bits;
  std::uint64_t evaluations;
};

TEST(GeneralPartitionerTest, WinnersMatchTheGolden) {
  // Problem `seed`: random_network(Rng(seed), clusters, 10), fitted for
  // 1-D and broadcast, each cluster offering 1..size processors drawn from
  // the same Rng, and golden_spec(seed).
  const std::vector<GoldenWinner> golden = {
    {5, {2, 3, 2, 2, 3}, 0x403f438e4f0ef62eull, 380},
    {6, {0, 0, 0, 1, 0, 0}, 0x4011570a3d70a3d7ull, 345},
    {7, {2, 1, 1, 0, 3, 0, 1}, 0x4013954e6379c376ull, 755},
    {8, {2, 3, 2, 2, 2, 3, 2, 5}, 0x405c30b5d8d2045bull, 1434},
    {4, {1, 3, 6, 2}, 0x4066923126e978d5ull, 266},
    {5, {0, 2, 0, 0, 0}, 0x402056f336f49f92ull, 457},
    {6, {1, 3, 1, 1, 3, 3}, 0x401df9f1e6a12ae6ull, 676},
    {7, {1, 3, 1, 2, 4, 4, 1}, 0x4077fb1934473899ull, 1047},
    {8, {2, 1, 3, 3, 5, 4, 5, 3}, 0x4067430c49ba5e35ull, 1803},
    {4, {0, 0, 2, 0}, 0x4026eb4b6afbc955ull, 341},
    {5, {2, 1, 2, 4, 1}, 0x402359104556daaeull, 469},
    {6, {3, 2, 5, 3, 4, 3}, 0x4081630b7338ec03ull, 957},
    {7, {5, 1, 2, 7, 7, 2, 1}, 0x407439851eb851ecull, 1065},
    {8, {0, 1, 0, 0, 0, 0, 0, 0}, 0x4038000000000000ull, 583},
    {4, {1, 3, 3, 2}, 0x40244ddc05b42d66ull, 256},
    {5, {3, 6, 2, 7, 3}, 0x408551ed2b5d247full, 557},
    {10, {1, 1, 4, 2, 4, 2, 5, 9, 2, 1}, 0x4075ae6e978d4fe0ull, 3477},
    {9, {0, 0, 0, 0, 0, 0, 0, 2, 0}, 0x40398829b916b184ull, 1741},
    {10, {2, 2, 1, 1, 1, 2, 2, 2, 1, 1}, 0x4022ad20d9f99474ull, 2165},
    {9, {1, 4, 3, 3, 3, 3, 3, 2, 1}, 0x409143a1a795828eull, 1848},
  };
  for (std::uint64_t seed = 1; seed <= golden.size(); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GoldenWinner& want = golden[seed - 1];
    Rng rng(seed);
    const Network net = presets::random_network(rng, want.clusters, 10);
    CalibrationParams params;
    params.topologies = {Topology::OneD, Topology::Broadcast};
    const CostModelDb db = calibrate(net, params).db;
    AvailabilitySnapshot snap;
    for (const Cluster& c : net.clusters()) {
      snap.available.push_back(static_cast<int>(rng.next_int(1, c.size())));
    }
    const ComputationSpec spec = golden_spec(seed);
    const CycleEstimator est(net, db, spec);
    const PartitionResult r = general_partition(est, snap);
    EXPECT_EQ(r.config, want.config);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.estimate.t_c_ms), want.t_c_bits)
        << r.estimate.t_c_ms;
    EXPECT_EQ(r.evaluations, want.evaluations);
  }
}

}  // namespace
}  // namespace netpart
