#include "apps/reduce.hpp"

#include "apps/spmd_sim.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

ComputationSpec make_reduce_spec(const ReduceConfig& config) {
  NP_REQUIRE(config.count >= 2, "need at least two values");
  const std::int64_t count = config.count;

  ComputationPhaseSpec local;
  local.name = "local-sum";
  local.num_pdus = [count] { return count; };
  local.ops_per_pdu = [] { return 1.0; };  // one add per value
  local.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec combine;
  combine.name = "combine";
  combine.topology = [] { return Topology::Tree; };
  combine.bytes_per_message = [](std::int64_t) {
    return std::int64_t{8};  // one double partial
  };

  return ComputationSpec("reduce", {local}, {combine}, config.iterations);
}

std::vector<double> make_reduce_input(std::int64_t count,
                                      std::uint64_t seed) {
  std::vector<double> values(static_cast<std::size_t>(count));
  Rng rng(seed);
  for (double& v : values) {
    v = 2.0 * rng.next_double() - 1.0;
  }
  return values;
}

double sequential_sum(const std::vector<double>& values) {
  double acc = 0.0;
  for (double v : values) acc += v;
  return acc;
}

namespace {

struct ReduceRank {
  int rank = 0;
  double local = 0.0;      ///< local block sum (computed once per iteration)
  std::int64_t count = 0;  ///< owned values
  double combined = 0.0;   ///< local + children partials
  int children_expected = 0;
  int children_arrived = 0;
  int iter = 0;
  bool local_done = false;
};

class ReduceRunner {
 public:
  ReduceRunner(const Network& network, const Placement& placement,
               const PartitionVector& partition, const ReduceConfig& config,
               std::uint64_t seed, const sim::NetSimParams& sim_params)
      : config_(config),
        sim_(network, placement, sim_params, Rng(seed ^ 0x7EE5)) {
    partition.validate(config.count);
    const std::vector<double> input =
        make_reduce_input(config.count, seed);
    const auto ranges = partition.block_ranges();
    const int p = static_cast<int>(placement.size());
    ranks_.resize(placement.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ReduceRank& rr = ranks_[r];
      rr.rank = static_cast<int>(r);
      double sum = 0.0;
      for (std::int64_t i = ranges[r].first; i < ranges[r].second; ++i) {
        sum += input[static_cast<std::size_t>(i)];
      }
      rr.local = sum;
      rr.count = ranges[r].second - ranges[r].first;
      const int left = 2 * rr.rank + 1;
      const int right = 2 * rr.rank + 2;
      rr.children_expected = (left < p ? 1 : 0) + (right < p ? 1 : 0);
    }
  }

  DistributedReduceResult run() {
    const SpmdSim::Outcome outcome = sim_.run([this](int r) {
      start_iteration(ranks_[static_cast<std::size_t>(r)]);
    });
    DistributedReduceResult result;
    result.value = root_value_;
    result.elapsed = outcome.elapsed;
    result.messages = outcome.messages;
    return result;
  }

 private:
  void start_iteration(ReduceRank& rr) {
    if (rr.iter == config_.iterations) {
      sim_.finish();
      return;
    }
    // Local block sum: one add per owned value.
    const SimTime end = sim_.charge(
        rr.rank, sim_.flop_ms(rr.rank) * static_cast<double>(rr.count));
    rr.combined = rr.local;
    rr.children_arrived = 0;
    rr.local_done = false;

    // Children partials may arrive at any time; post the receives now.
    for (const int child : {2 * rr.rank + 1, 2 * rr.rank + 2}) {
      if (child >= sim_.size()) continue;
      sim_.recv(rr.rank, child, rr.iter, [this, &rr](mmps::Message msg) {
        const auto v = mmps::decode_array<double>(msg.payload);
        NP_ASSERT(v.size() == 1);
        rr.combined += v[0];
        ++rr.children_arrived;
        maybe_forward(rr);
      });
    }
    sim_.engine().schedule_at(end, [this, &rr] {
      rr.local_done = true;
      maybe_forward(rr);
    });
  }

  /// Once the local sum and all children partials are in, forward up the
  /// tree (or record the result at the root) and begin the next iteration.
  void maybe_forward(ReduceRank& rr) {
    if (!rr.local_done || rr.children_arrived != rr.children_expected) {
      return;
    }
    if (rr.rank == 0) {
      root_value_ = rr.combined;
    } else {
      const double payload[] = {rr.combined};
      sim_.send(rr.rank, (rr.rank - 1) / 2, rr.iter,
                mmps::encode_array(std::span<const double>(payload)));
    }
    ++rr.iter;
    sim_.after_sends(rr.rank, [this, &rr] { start_iteration(rr); });
  }

  ReduceConfig config_;
  SpmdSim sim_;
  std::vector<ReduceRank> ranks_;
  double root_value_ = 0.0;
};

}  // namespace

DistributedReduceResult run_distributed_reduce(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const ReduceConfig& config,
    std::uint64_t seed, const sim::NetSimParams& sim_params) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  ReduceRunner runner(network, placement, partition, config, seed,
                      sim_params);
  return runner.run();
}

}  // namespace netpart::apps
