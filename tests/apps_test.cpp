// Application-level tests: the functional distributed implementations must
// reproduce their sequential references, and the annotation specs must
// describe the paper's published values.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/stencil.hpp"
#include "core/decompose.hpp"
#include "net/presets.hpp"
#include "sim/faults.hpp"
#include "util/hash.hpp"

namespace netpart {
namespace {

class AppsFixture : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
  std::vector<ClusterId> order_ = clusters_by_speed(net_);
};

// ---------------------------------------------------------------- stencil

TEST_F(AppsFixture, StencilSpecMatchesPaperAnnotations) {
  const apps::StencilConfig cfg{.n = 600, .iterations = 10,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  EXPECT_EQ(spec.num_pdus(), 600);
  EXPECT_DOUBLE_EQ(spec.dominant_computation().ops_per_pdu(), 5.0 * 600);
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::OneD);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(100), 4 * 600);
  EXPECT_FALSE(spec.dominant_phases_overlap());
  EXPECT_EQ(spec.iterations(), 10);
}

TEST_F(AppsFixture, Sten2SpecOverlaps) {
  const apps::StencilConfig cfg{.n = 60, .iterations = 10, .overlap = true};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  EXPECT_TRUE(spec.dominant_phases_overlap());
  EXPECT_EQ(spec.name(), "STEN-2");
}

TEST_F(AppsFixture, SequentialStencilRelaxesTowardBoundary) {
  const apps::StencilConfig cfg{.n = 16, .iterations = 200,
                                .overlap = false};
  const std::vector<float> grid = apps::run_sequential(cfg);
  // Heat diffuses from the hot top row: the row below must have warmed.
  EXPECT_GT(grid[16 + 8], 10.0f);
  // Corners of the fixed boundary remain untouched.
  EXPECT_FLOAT_EQ(grid[0], 100.0f);
  EXPECT_FLOAT_EQ(grid[16 * 16 - 1], 0.0f);
}

TEST_F(AppsFixture, DistributedStencilBitExactSten1) {
  const apps::StencilConfig cfg{.n = 32, .iterations = 7, .overlap = false};
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist =
      apps::run_distributed_stencil(net_, placement, part, cfg);
  const auto seq = apps::run_sequential(cfg);
  ASSERT_EQ(dist.grid, seq);
  EXPECT_GT(dist.elapsed.as_millis(), 0.0);
}

TEST_F(AppsFixture, DistributedStencilBitExactSten2SingleRowRanks) {
  // Force single-row blocks on some ranks: the STEN-2 interior/border
  // split must still compute every row exactly once.
  const apps::StencilConfig cfg{.n = 13, .iterations = 5, .overlap = true};
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist =
      apps::run_distributed_stencil(net_, placement, part, cfg);
  EXPECT_EQ(dist.grid, apps::run_sequential(cfg));
}

TEST_F(AppsFixture, StencilOverlapIsFasterAtScale) {
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(net_, config);
  const int n = 120;
  const PartitionVector part = balanced_partition(net_, config, order_, n);
  const apps::StencilConfig sten1{.n = n, .iterations = 10,
                                  .overlap = false};
  const apps::StencilConfig sten2{.n = n, .iterations = 10,
                                  .overlap = true};
  const auto t1 = apps::run_distributed_stencil(net_, placement, part,
                                                sten1);
  const auto t2 = apps::run_distributed_stencil(net_, placement, part,
                                                sten2);
  EXPECT_LT(t2.elapsed, t1.elapsed);
}

// ------------------------------------------------------------------ gauss

TEST_F(AppsFixture, SequentialGaussSolvesSystem) {
  const apps::LinearSystem sys = apps::make_test_system(64, 3);
  const std::vector<double> x = apps::solve_sequential(sys);
  // Residual check.
  for (int i = 0; i < sys.n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < sys.n; ++j) {
      acc += sys.a[static_cast<std::size_t>(i) * sys.n + j] *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, sys.b[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST_F(AppsFixture, DistributedGaussMatchesSequential) {
  const apps::GaussConfig cfg{.n = 48};
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist = apps::run_distributed_gauss(net_, placement, part, cfg,
                                                /*seed=*/3);
  const std::vector<double> seq =
      apps::solve_sequential(apps::make_test_system(cfg.n, 3));
  ASSERT_EQ(dist.x.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_NEAR(dist.x[i], seq[i], 1e-9) << "x[" << i << "]";
  }
  EXPECT_GT(dist.elapsed.as_millis(), 0.0);
}

TEST_F(AppsFixture, GaussRowMappings) {
  const PartitionVector part({6, 3, 3});
  // Block: contiguous ranges.
  const auto block = apps::map_rows(part, 12, apps::RowMapping::Block);
  EXPECT_EQ(block[0], (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(block[1], (std::vector<int>{6, 7, 8}));
  // Cyclic: every rank gets exactly A_i rows, interleaved so each prefix
  // splits near the A ratio.
  const auto cyclic = apps::map_rows(part, 12, apps::RowMapping::Cyclic);
  EXPECT_EQ(cyclic[0].size(), 6u);
  EXPECT_EQ(cyclic[1].size(), 3u);
  EXPECT_EQ(cyclic[2].size(), 3u);
  // Rank 0 owns half of the first half of the matrix, not all of it.
  int rank0_in_first_half = 0;
  for (int g : cyclic[0]) {
    if (g < 6) ++rank0_in_first_half;
  }
  EXPECT_LE(rank0_in_first_half, 4);
  // All rows covered exactly once.
  std::vector<int> seen(12, 0);
  for (const auto& rows : cyclic) {
    for (int g : rows) ++seen[static_cast<std::size_t>(g)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(AppsFixture, CyclicGaussMatchesSequentialAndRunsFaster) {
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, 48);

  apps::GaussConfig block_cfg{.n = 48, .mapping = apps::RowMapping::Block};
  apps::GaussConfig cyclic_cfg{.n = 48,
                               .mapping = apps::RowMapping::Cyclic};
  const auto block =
      apps::run_distributed_gauss(net_, placement, part, block_cfg, 7);
  const auto cyclic =
      apps::run_distributed_gauss(net_, placement, part, cyclic_cfg, 7);
  const std::vector<double> seq =
      apps::solve_sequential(apps::make_test_system(48, 7));
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_NEAR(block.x[i], seq[i], 1e-9);
    EXPECT_NEAR(cyclic.x[i], seq[i], 1e-9);
  }
  // The cyclic mapping keeps the shrinking active set balanced, so the
  // simulated elimination is faster.
  EXPECT_LT(cyclic.elapsed, block.elapsed);
}

TEST_F(AppsFixture, GaussSpecHasNonUniformAnnotations) {
  const apps::GaussConfig cfg{.n = 256};
  const ComputationSpec spec = apps::make_gauss_spec(cfg);
  EXPECT_EQ(spec.num_pdus(), 256);
  EXPECT_EQ(spec.iterations(), 256);
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::Broadcast);
  EXPECT_NEAR(spec.dominant_computation().ops_per_pdu(),
              2.0 / 3.0 * 256, 1e-12);
}

// -------------------------------------------------------------- particles

TEST_F(AppsFixture, DistributedParticlesBitExact) {
  const apps::ParticleConfig cfg{.count = 200, .iterations = 25};
  const ProcessorConfig config{4, 3};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.count);
  const auto dist =
      apps::run_distributed_particles(net_, placement, part, cfg);
  const apps::ParticleState seq = apps::run_sequential_particles(cfg, 5);
  ASSERT_EQ(dist.state.position, seq.position);
  ASSERT_EQ(dist.state.velocity, seq.velocity);
}

TEST_F(AppsFixture, ParticleChainConservesMomentum) {
  // Internal spring forces are equal and opposite; with free ends the
  // total momentum change per step is zero up to floating point.
  const apps::ParticleConfig cfg{.count = 64, .iterations = 100};
  const apps::ParticleState state = apps::run_sequential_particles(cfg, 9);
  double momentum = 0.0;
  for (double v : state.velocity) momentum += v;
  EXPECT_NEAR(momentum, 0.0, 1e-9);
}

TEST_F(AppsFixture, ParticleSpecIsLatencyBound) {
  const apps::ParticleConfig cfg{.count = 10000, .iterations = 10};
  const ComputationSpec spec = apps::make_particle_spec(cfg);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(1000), 8);
  EXPECT_EQ(spec.num_pdus(), 10000);
}

// ---------------------------------------------------------------- goldens
//
// Every distributed app pinned bitwise: the simulated elapsed time in ns,
// the delivered message count, and an FNV-1a hash over the bit patterns of
// the result data.  A rewrite of a runner that moves one simulated
// nanosecond, one message or one result bit fails here.

std::uint64_t bits_hash(Fnv1a h, const std::vector<float>& values) {
  for (float v : values) h.u32(std::bit_cast<std::uint32_t>(v));
  return h.value();
}

std::uint64_t bits_hash(Fnv1a h, const std::vector<double>& values) {
  for (double v : values) h.u64(std::bit_cast<std::uint64_t>(v));
  return h.value();
}

struct Golden {
  std::int64_t elapsed_ns = 0;
  std::uint64_t messages = 0;
  std::uint64_t hash = 0;
};

void expect_golden(SimTime elapsed, std::uint64_t messages,
                   std::uint64_t hash, const Golden& golden) {
  EXPECT_EQ(elapsed.as_nanos(), golden.elapsed_ns);
  EXPECT_EQ(messages, golden.messages);
  EXPECT_EQ(hash, golden.hash);
}

class AppsGolden : public AppsFixture {
 protected:
  Placement placement(const ProcessorConfig& config) const {
    return contiguous_placement(net_, config, order_);
  }
  PartitionVector partition(const ProcessorConfig& config,
                            std::int64_t pdus) const {
    return balanced_partition(net_, config, order_, pdus);
  }

  apps::DistributedStencilResult stencil(const apps::StencilConfig& cfg,
                                         const ProcessorConfig& config,
                                         const sim::FaultPlan* faults,
                                         SimTime fault_origin) const {
    return apps::run_distributed_stencil(net_, placement(config),
                                         partition(config, cfg.n), cfg, {},
                                         faults, fault_origin);
  }
};

TEST_F(AppsGolden, Sten1) {
  const apps::StencilConfig cfg{.n = 48, .iterations = 6, .overlap = false};
  const auto run = stencil(cfg, {3, 2}, nullptr, SimTime::zero());
  expect_golden(run.elapsed, run.messages, bits_hash({}, run.grid),
                {34416320, 48, 470187462302498137u});
}

TEST_F(AppsGolden, Sten2SingleRowRanks) {
  const apps::StencilConfig cfg{.n = 13, .iterations = 5, .overlap = true};
  const auto run = stencil(cfg, {6, 6}, nullptr, SimTime::zero());
  expect_golden(run.elapsed, run.messages, bits_hash({}, run.grid),
                {64248200, 110, 6260728774598155197u});
}

TEST_F(AppsGolden, StencilUnderFaultPlan) {
  // Performance faults only (slowdowns, a flap, a degradation), with the
  // run sitting 10 ms into the plan's clock.
  sim::ChaosOptions options;
  options.crashes = 0;
  options.revocations = 0;
  options.slowdowns = 2;
  options.flaps = 1;
  options.degrades = 1;
  options.horizon = SimTime::millis(80);
  options.max_flap = SimTime::millis(60);
  const sim::FaultPlan plan = sim::ChaosRng(3).make_plan(net_, options);
  ASSERT_FALSE(plan.empty());
  const apps::StencilConfig cfg{.n = 96, .iterations = 5, .overlap = true};
  const auto run = stencil(cfg, {4, 3}, &plan, SimTime::millis(10));
  expect_golden(run.elapsed, run.messages, bits_hash({}, run.grid),
                {56157721, 60, 7263085892868741413u});
}

TEST_F(AppsGolden, GaussBlockAndCyclic) {
  const ProcessorConfig config{3, 2};
  const std::pair<apps::RowMapping, Golden> cases[] = {
      {apps::RowMapping::Block, {370877600, 320, 2465618095479914320u}},
      {apps::RowMapping::Cyclic, {370763320, 320, 2465618095479914320u}},
  };
  for (const auto& [mapping, golden] : cases) {
    const apps::GaussConfig cfg{.n = 40, .mapping = mapping};
    const auto run = apps::run_distributed_gauss(
        net_, placement(config), partition(config, cfg.n), cfg, 7);
    expect_golden(run.elapsed, run.messages, bits_hash({}, run.x), golden);
  }
}

sim::NetSimParams lossy_network() {
  sim::NetSimParams lossy;
  lossy.loss_rate = 0.2;
  lossy.rto = SimTime::millis(5);
  return lossy;
}

TEST_F(AppsGolden, ParticlesCleanAndLossy) {
  const apps::ParticleConfig cfg{.count = 500, .iterations = 20};
  const std::tuple<ProcessorConfig, sim::NetSimParams, Golden> cases[] = {
      {{4, 2}, {}, {90682120, 200, 9434764986069533830u}},
      {{3, 3}, lossy_network(), {186969480, 200, 9434764986069533830u}},
  };
  for (const auto& [config, params, golden] : cases) {
    const auto run = apps::run_distributed_particles(
        net_, placement(config), partition(config, cfg.count), cfg, 5,
        params);
    expect_golden(run.elapsed, run.messages,
                  bits_hash(Fnv1a().u64(bits_hash({}, run.state.position)),
                            run.state.velocity),
                  golden);
  }
}

}  // namespace
}  // namespace netpart
