#include "apps/solver.hpp"

#include <algorithm>
#include <cmath>

#include "apps/spmd_sim.hpp"
#include "apps/stencil.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec make_solver_spec(const SolverConfig& config) {
  NP_REQUIRE(config.n >= 3, "solver needs at least a 3x3 grid");
  const int n = config.n;

  ComputationPhaseSpec sweep;
  sweep.name = "sweep";
  sweep.num_pdus = [n] { return static_cast<std::int64_t>(n); };
  // 5 flops per point for the stencil + 1 for the residual accumulation.
  sweep.ops_per_pdu = [n] { return 6.0 * n; };
  sweep.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::OneD; };
  borders.bytes_per_message = [n](std::int64_t) {
    return static_cast<std::int64_t>(4) * n;
  };

  CommunicationPhaseSpec norm;
  norm.name = "norm";
  norm.topology = [] { return Topology::Tree; };
  norm.bytes_per_message = [](std::int64_t) { return std::int64_t{8}; };

  return ComputationSpec("jacobi-solver", {sweep}, {borders, norm},
                         config.iterations);
}

namespace {

/// One Jacobi sweep over rows [glo, ghi) of an (rows+2) x n local buffer
/// (ghosts at local rows 0 and rows+1); returns the residual contribution.
/// `lo` is the first owned global row.  Boundary rows/columns are fixed.
double sweep_rows(const std::vector<float>& cur, std::vector<float>& next,
                  int n, int lo, int glo, int ghi) {
  double residual = 0.0;
  for (int row = glo; row < ghi; ++row) {
    if (row == 0 || row == n - 1) continue;
    const int lr = row - lo + 1;
    const float* above = cur.data() + static_cast<std::ptrdiff_t>(lr - 1) * n;
    const float* here = cur.data() + static_cast<std::ptrdiff_t>(lr) * n;
    const float* below = cur.data() + static_cast<std::ptrdiff_t>(lr + 1) * n;
    float* out = next.data() + static_cast<std::ptrdiff_t>(lr) * n;
    out[0] = here[0];
    out[n - 1] = here[n - 1];
    for (int j = 1; j < n - 1; ++j) {
      const float v =
          0.25f * (above[j] + below[j] + here[j - 1] + here[j + 1]);
      out[j] = v;
      residual += std::abs(static_cast<double>(v) -
                           static_cast<double>(here[j]));
    }
  }
  return residual;
}

}  // namespace

std::vector<double> run_sequential_solver(const SolverConfig& config,
                                          std::vector<float>& grid) {
  const int n = config.n;
  grid = make_initial_grid(n);
  // Wrap the full grid with ghost rows so sweep_rows can be shared with
  // the distributed path (ghosts stay zero and are never read: rows 0 and
  // n-1 are fixed boundary).
  std::vector<float> cur(static_cast<std::size_t>(n + 2) * n, 0.0f);
  std::copy(grid.begin(), grid.end(), cur.begin() + n);
  std::vector<float> next = cur;
  std::vector<double> residuals;
  for (int it = 0; it < config.iterations; ++it) {
    const double r = sweep_rows(cur, next, n, /*lo=*/0, 0, n);
    // Boundary rows carry over.
    std::copy_n(cur.begin() + n, n, next.begin() + n);
    std::copy_n(cur.begin() + static_cast<std::ptrdiff_t>(n) * n, n,
                next.begin() + static_cast<std::ptrdiff_t>(n) * n);
    cur.swap(next);
    residuals.push_back(r);
  }
  std::copy_n(cur.begin() + n, static_cast<std::ptrdiff_t>(n) * n,
              grid.begin());
  return residuals;
}

namespace {

struct SolverRank {
  SolverRank(int r, int size) : rank(r), halo(r, size) {}

  int rank = 0;
  int lo = 0;
  int hi = 0;
  std::vector<float> cur;
  std::vector<float> next;
  int iter = 0;
  Halo1D halo;
  // Norm reduction state.
  double own_residual = 0.0;
  double child_partial[2] = {0.0, 0.0};
  bool child_seen[2] = {false, false};
  int children_expected = 0;
  int children_arrived = 0;
  bool sweep_done = false;
};

class SolverRunner {
 public:
  SolverRunner(const Network& network, const Placement& placement,
               const PartitionVector& partition, const SolverConfig& config,
               const sim::NetSimParams& sim_params)
      : n_(config.n),
        iterations_(config.iterations),
        sim_(network, placement, sim_params, Rng(23)) {
    partition.validate(config.n);
    const std::vector<float> init = make_initial_grid(n_);
    const auto ranges = partition.block_ranges();
    const int p = sim_.size();
    ranks_.reserve(placement.size());
    for (int r = 0; r < p; ++r) {
      SolverRank& sr = ranks_.emplace_back(r, p);
      sr.lo = static_cast<int>(ranges[static_cast<std::size_t>(r)].first);
      sr.hi = static_cast<int>(ranges[static_cast<std::size_t>(r)].second);
      const int rows = sr.hi - sr.lo;
      sr.cur.assign(static_cast<std::size_t>(rows + 2) * n_, 0.0f);
      for (int row = sr.lo; row < sr.hi; ++row) {
        std::copy_n(init.begin() + static_cast<std::ptrdiff_t>(row) * n_,
                    n_,
                    sr.cur.begin() +
                        static_cast<std::ptrdiff_t>(row - sr.lo + 1) * n_);
      }
      sr.next = sr.cur;
      sr.children_expected = (2 * sr.rank + 1 < p ? 1 : 0) +
                             (2 * sr.rank + 2 < p ? 1 : 0);
    }
    residuals_.reserve(static_cast<std::size_t>(iterations_));
  }

  DistributedSolverResult run() {
    const SpmdSim::Outcome outcome = sim_.run([this](int r) {
      start_iteration(ranks_[static_cast<std::size_t>(r)]);
    });
    DistributedSolverResult result;
    result.elapsed = outcome.elapsed;
    result.messages = outcome.messages;
    result.residuals = residuals_;
    result.grid.assign(static_cast<std::size_t>(n_) * n_, 0.0f);
    for (const SolverRank& sr : ranks_) {
      for (int row = sr.lo; row < sr.hi; ++row) {
        std::copy_n(sr.cur.begin() +
                        static_cast<std::ptrdiff_t>(row - sr.lo + 1) * n_,
                    n_,
                    result.grid.begin() +
                        static_cast<std::ptrdiff_t>(row) * n_);
      }
    }
    return result;
  }

 private:
  float* row_ptr(std::vector<float>& buf, int local_row) {
    return buf.data() + static_cast<std::ptrdiff_t>(local_row) * n_;
  }

  void start_iteration(SolverRank& sr) {
    if (sr.iter == iterations_) {
      sim_.finish();
      return;
    }
    sr.halo.reset();
    sr.children_arrived = 0;
    sr.child_seen[0] = sr.child_seen[1] = false;
    sr.sweep_done = false;

    const int rows = sr.hi - sr.lo;
    const int p = sim_.size();

    // Norm-phase receives from tree children can arrive any time after
    // the children finish their sweeps; install handlers up front.
    for (int side = 0; side < 2; ++side) {
      const int child = 2 * sr.rank + 1 + side;
      if (child >= p) continue;
      sim_.recv(sr.rank, child, norm_tag(sr.iter),
                [this, &sr, side](mmps::Message msg) {
                  const auto v = mmps::decode_array<double>(msg.payload);
                  NP_ASSERT(v.size() == 1);
                  sr.child_partial[side] = v[0];
                  sr.child_seen[side] = true;
                  ++sr.children_arrived;
                  maybe_reduce(sr);
                });
    }

    // Halo exchange (tag parity distinguishes the phases).
    const auto install_ghost = [this, &sr](int local_row) {
      return [this, &sr, local_row](mmps::Message msg) {
        const std::vector<float> row = mmps::decode_array<float>(msg.payload);
        NP_ASSERT(static_cast<int>(row.size()) == n_);
        std::copy(row.begin(), row.end(), row_ptr(sr.cur, local_row));
        sr.halo.arrived();
      };
    };
    if (sr.rank > 0) {
      sim_.recv(sr.rank, sr.rank - 1, border_tag(sr.iter), install_ghost(0));
      const std::span<const float> row(row_ptr(sr.cur, 1), n_);
      sim_.send(sr.rank, sr.rank - 1, border_tag(sr.iter),
                mmps::encode_array(row));
    }
    if (sr.rank + 1 < p) {
      sim_.recv(sr.rank, sr.rank + 1, border_tag(sr.iter),
                install_ghost(rows + 1));
      const std::span<const float> row(row_ptr(sr.cur, rows), n_);
      sim_.send(sr.rank, sr.rank + 1, border_tag(sr.iter),
                mmps::encode_array(row));
    }

    sim_.after_sends(sr.rank, [this, &sr] {
      sr.halo.when_complete([this, &sr] { do_sweep(sr); });
    });
  }

  void do_sweep(SolverRank& sr) {
    const int rows = sr.hi - sr.lo;
    sr.own_residual = sweep_rows(sr.cur, sr.next, n_, sr.lo, sr.lo, sr.hi);
    if (sr.lo == 0) {
      std::copy_n(row_ptr(sr.cur, 1), n_, row_ptr(sr.next, 1));
    }
    if (sr.hi == n_) {
      std::copy_n(row_ptr(sr.cur, rows), n_, row_ptr(sr.next, rows));
    }
    sr.cur.swap(sr.next);

    const double ms = sim_.flop_ms(sr.rank) * 6.0 * n_ * rows;
    sim_.engine().schedule_at(sim_.charge(sr.rank, ms), [this, &sr] {
      sr.sweep_done = true;
      maybe_reduce(sr);
    });
  }

  /// Combine own residual with children partials (fixed left-then-right
  /// order for determinism) and forward up the tree.
  void maybe_reduce(SolverRank& sr) {
    if (!sr.sweep_done || sr.children_arrived != sr.children_expected) {
      return;
    }
    double combined = sr.own_residual;
    if (sr.child_seen[0]) combined += sr.child_partial[0];
    if (sr.child_seen[1]) combined += sr.child_partial[1];

    if (sr.rank == 0) {
      residuals_.push_back(combined);
    } else {
      const double payload[] = {combined};
      sim_.send(sr.rank, (sr.rank - 1) / 2, norm_tag(sr.iter),
                mmps::encode_array(std::span<const double>(payload)));
    }
    ++sr.iter;
    sim_.after_sends(sr.rank, [this, &sr] { start_iteration(sr); });
  }

  static std::int32_t border_tag(int iter) { return 2 * iter; }
  static std::int32_t norm_tag(int iter) { return 2 * iter + 1; }

  int n_;
  int iterations_;
  SpmdSim sim_;
  std::vector<SolverRank> ranks_;
  std::vector<double> residuals_;
};

}  // namespace

DistributedSolverResult run_distributed_solver(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const SolverConfig& config,
    const sim::NetSimParams& sim_params) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  SolverRunner runner(network, placement, partition, config, sim_params);
  return runner.run();
}

}  // namespace netpart::apps
