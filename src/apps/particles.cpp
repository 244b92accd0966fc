#include "apps/particles.hpp"

#include <algorithm>
#include <utility>

#include "apps/spmd_sim.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

namespace {

/// Spring force on particle i from its neighbours.  `left`/`right` are the
/// neighbouring positions; particles at the chain ends have one-sided
/// forces.  The arithmetic is written so the distributed version evaluates
/// the exact same expression in the same order (bit-identical results).
double chain_force(double left, double here, double right, bool has_left,
                   bool has_right, double stiffness, double rest) {
  double force = 0.0;
  if (has_left) {
    force += stiffness * ((here - left) - rest) * -1.0;
  }
  if (has_right) {
    force += stiffness * ((right - here) - rest);
  }
  return force;
}

}  // namespace

ComputationSpec make_particle_spec(const ParticleConfig& config) {
  NP_REQUIRE(config.count >= 2, "need at least two particles");
  NP_REQUIRE(config.iterations >= 1, "need at least one step");
  const int count = config.count;

  ComputationPhaseSpec forces;
  forces.name = "forces";
  forces.num_pdus = [count] { return static_cast<std::int64_t>(count); };
  forces.ops_per_pdu = [] { return 9.0; };
  forces.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec ghosts;
  ghosts.name = "ghosts";
  ghosts.topology = [] { return Topology::OneD; };
  ghosts.bytes_per_message = [](std::int64_t) {
    return static_cast<std::int64_t>(8);  // one boundary position
  };

  return ComputationSpec("particles", {forces}, {ghosts},
                         config.iterations);
}

ParticleState make_initial_particles(const ParticleConfig& config,
                                     std::uint64_t seed) {
  ParticleState state;
  state.position.resize(static_cast<std::size_t>(config.count));
  state.velocity.assign(static_cast<std::size_t>(config.count), 0.0);
  Rng rng(seed);
  for (int i = 0; i < config.count; ++i) {
    state.position[static_cast<std::size_t>(i)] =
        config.rest_length * i +
        0.1 * config.rest_length * (2.0 * rng.next_double() - 1.0);
  }
  return state;
}

ParticleState run_sequential_particles(const ParticleConfig& config,
                                       std::uint64_t seed) {
  ParticleState state = make_initial_particles(config, seed);
  const int n = config.count;
  std::vector<double> next_pos(state.position.size());
  for (int it = 0; it < config.iterations; ++it) {
    for (int i = 0; i < n; ++i) {
      const bool has_left = i > 0;
      const bool has_right = i < n - 1;
      const double left =
          has_left ? state.position[static_cast<std::size_t>(i - 1)] : 0.0;
      const double right =
          has_right ? state.position[static_cast<std::size_t>(i + 1)] : 0.0;
      const double f = chain_force(
          left, state.position[static_cast<std::size_t>(i)], right, has_left,
          has_right, config.stiffness, config.rest_length);
      state.velocity[static_cast<std::size_t>(i)] += f * config.dt;
      next_pos[static_cast<std::size_t>(i)] =
          state.position[static_cast<std::size_t>(i)] +
          state.velocity[static_cast<std::size_t>(i)] * config.dt;
    }
    state.position.swap(next_pos);
  }
  return state;
}

namespace {

struct ParticleRank {
  ParticleRank(int r, int size) : rank(r), halo(r, size) {}

  int rank = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<double> pos;  ///< owned positions
  std::vector<double> vel;
  std::vector<double> next_pos;
  double ghost_left = 0.0;
  double ghost_right = 0.0;
  int iter = 0;
  Halo1D halo;
};

class ParticleRunner {
 public:
  ParticleRunner(const Network& network, const Placement& placement,
                 const PartitionVector& partition,
                 const ParticleConfig& config, std::uint64_t seed,
                 const sim::NetSimParams& sim_params)
      : config_(config),
        sim_(network, placement, sim_params, Rng(seed ^ 0xBEEF)) {
    partition.validate(config.count);
    const ParticleState init = make_initial_particles(config, seed);
    const auto ranges = partition.block_ranges();
    ranks_.reserve(placement.size());
    for (int r = 0; r < sim_.size(); ++r) {
      ParticleRank& pr = ranks_.emplace_back(r, sim_.size());
      pr.lo = ranges[static_cast<std::size_t>(r)].first;
      pr.hi = ranges[static_cast<std::size_t>(r)].second;
      pr.pos.assign(init.position.begin() + pr.lo,
                    init.position.begin() + pr.hi);
      pr.vel.assign(init.velocity.begin() + pr.lo,
                    init.velocity.begin() + pr.hi);
      pr.next_pos.resize(pr.pos.size());
    }
  }

  DistributedParticlesResult run() {
    const SpmdSim::Outcome outcome = sim_.run([this](int r) {
      start_iteration(ranks_[static_cast<std::size_t>(r)]);
    });

    DistributedParticlesResult result;
    result.elapsed = outcome.elapsed;
    result.messages = outcome.messages;
    result.state.position.resize(
        static_cast<std::size_t>(config_.count));
    result.state.velocity.resize(
        static_cast<std::size_t>(config_.count));
    for (const ParticleRank& pr : ranks_) {
      std::copy(pr.pos.begin(), pr.pos.end(),
                result.state.position.begin() + pr.lo);
      std::copy(pr.vel.begin(), pr.vel.end(),
                result.state.velocity.begin() + pr.lo);
    }
    return result;
  }

 private:
  void start_iteration(ParticleRank& pr) {
    if (pr.iter == config_.iterations) {
      sim_.finish();
      return;
    }

    // Post ghost receives, then send our boundary positions.
    const auto install = [&pr](double& ghost) {
      return [&pr, &ghost](mmps::Message msg) {
        const std::vector<double> v = mmps::decode_array<double>(msg.payload);
        NP_ASSERT(v.size() == 1);
        ghost = v[0];
        pr.halo.arrived();
      };
    };
    if (pr.rank > 0) {
      sim_.recv(pr.rank, pr.rank - 1, pr.iter, install(pr.ghost_left));
      const double boundary[] = {pr.pos.front()};
      sim_.send(pr.rank, pr.rank - 1, pr.iter,
                mmps::encode_array(std::span<const double>(boundary)));
    }
    if (pr.rank + 1 < sim_.size()) {
      sim_.recv(pr.rank, pr.rank + 1, pr.iter, install(pr.ghost_right));
      const double boundary[] = {pr.pos.back()};
      sim_.send(pr.rank, pr.rank + 1, pr.iter,
                mmps::encode_array(std::span<const double>(boundary)));
    }

    sim_.after_sends(pr.rank, [this, &pr] {
      pr.halo.when_complete([this, &pr] { integrate(pr); });
    });
  }

  void integrate(ParticleRank& pr) {
    const std::int64_t count = pr.hi - pr.lo;
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t g = pr.lo + i;
      const bool has_left = g > 0;
      const bool has_right = g < config_.count - 1;
      const double left =
          i > 0 ? pr.pos[static_cast<std::size_t>(i - 1)] : pr.ghost_left;
      const double right = i < count - 1
                               ? pr.pos[static_cast<std::size_t>(i + 1)]
                               : pr.ghost_right;
      const double f = chain_force(left, pr.pos[static_cast<std::size_t>(i)],
                                   right, has_left, has_right,
                                   config_.stiffness, config_.rest_length);
      pr.vel[static_cast<std::size_t>(i)] += f * config_.dt;
      pr.next_pos[static_cast<std::size_t>(i)] =
          pr.pos[static_cast<std::size_t>(i)] +
          pr.vel[static_cast<std::size_t>(i)] * config_.dt;
    }
    pr.pos.swap(pr.next_pos);

    const double ms =
        sim_.flop_ms(pr.rank) * 9.0 * static_cast<double>(count);
    const SimTime end = sim_.charge(pr.rank, ms);
    ++pr.iter;
    pr.halo.reset();
    sim_.engine().schedule_at(end, [this, &pr] { start_iteration(pr); });
  }

  ParticleConfig config_;
  SpmdSim sim_;
  std::vector<ParticleRank> ranks_;
};

}  // namespace

DistributedParticlesResult run_distributed_particles(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const ParticleConfig& config,
    std::uint64_t seed, const sim::NetSimParams& sim_params) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  ParticleRunner runner(network, placement, partition, config, seed,
                        sim_params);
  return runner.run();
}

}  // namespace netpart::apps
