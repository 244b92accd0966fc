#include "apps/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "apps/spmd_sim.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec make_stencil_spec(const StencilConfig& config) {
  NP_REQUIRE(config.n >= 3, "stencil needs at least a 3x3 grid");
  const int n = config.n;

  ComputationPhaseSpec grid;
  grid.name = "grid";
  grid.num_pdus = [n] { return static_cast<std::int64_t>(n); };
  grid.ops_per_pdu = [n] { return 5.0 * n; };
  grid.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::OneD; };
  borders.bytes_per_message = [n](std::int64_t) {
    return static_cast<std::int64_t>(4) * n;  // one row of 4-byte points
  };
  if (config.overlap) {
    borders.overlap_with = "grid";
  }

  return ComputationSpec(config.overlap ? "STEN-2" : "STEN-1", {grid},
                         {borders}, config.iterations);
}

ComputationSpec make_stencil2d_spec(const StencilConfig& config) {
  NP_REQUIRE(config.n >= 3, "stencil needs at least a 3x3 grid");
  const std::int64_t n = config.n;

  ComputationPhaseSpec grid;
  grid.name = "grid";
  grid.num_pdus = [n] { return n * n; };
  grid.ops_per_pdu = [] { return 9.0; };  // 9-point update per cell
  grid.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec borders;
  borders.name = "borders";
  borders.topology = [] { return Topology::TwoD; };
  borders.bytes_per_message = [](std::int64_t a_i) {
    // One side of an approximately square block of a_i cells, 4 bytes per
    // point.
    const auto side = static_cast<std::int64_t>(
        std::sqrt(static_cast<double>(a_i)) + 0.5);
    return 4 * std::max<std::int64_t>(side, 1);
  };
  if (config.overlap) {
    borders.overlap_with = "grid";
  }

  return ComputationSpec(config.overlap ? "STEN2D-2" : "STEN2D-1", {grid},
                         {borders}, config.iterations);
}

std::vector<float> make_initial_grid(int n) {
  NP_REQUIRE(n >= 3, "stencil needs at least a 3x3 grid");
  std::vector<float> grid(static_cast<std::size_t>(n) * n, 0.0f);
  for (int j = 0; j < n; ++j) {
    grid[static_cast<std::size_t>(j)] = 100.0f;  // top boundary row
  }
  return grid;
}

void sequential_sweep(std::vector<float>& grid, std::vector<float>& scratch,
                      int n) {
  NP_REQUIRE(grid.size() == static_cast<std::size_t>(n) * n,
             "grid size mismatch");
  scratch = grid;
  const auto at = [n](const std::vector<float>& g, int i, int j) {
    return g[static_cast<std::size_t>(i) * n + j];
  };
  for (int i = 1; i < n - 1; ++i) {
    for (int j = 1; j < n - 1; ++j) {
      scratch[static_cast<std::size_t>(i) * n + j] =
          0.25f * (at(grid, i - 1, j) + at(grid, i + 1, j) +
                   at(grid, i, j - 1) + at(grid, i, j + 1));
    }
  }
  grid.swap(scratch);
}

std::vector<float> run_sequential(const StencilConfig& config) {
  std::vector<float> grid = make_initial_grid(config.n);
  std::vector<float> scratch;
  for (int it = 0; it < config.iterations; ++it) {
    sequential_sweep(grid, scratch, config.n);
  }
  return grid;
}

namespace {

/// Per-rank state of the distributed stencil.  Row storage includes a ghost
/// row above and below the owned block: local row r maps to global row
/// lo + r - 1.
struct RankState {
  RankState(int r, int size) : rank(r), halo(r, size) {}

  int rank = 0;
  int lo = 0;  ///< first owned global row
  int hi = 0;  ///< one past last owned global row
  std::vector<float> cur;   ///< (rows + 2) x n, ghosts at local 0 and rows+1
  std::vector<float> next;
  int iter = 0;
  Halo1D halo;
};

class StencilRunner {
 public:
  StencilRunner(const Network& network, const Placement& placement,
                const PartitionVector& partition,
                const StencilConfig& config,
                const sim::NetSimParams& sim_params,
                const sim::FaultPlan* faults, SimTime fault_origin)
      : n_(config.n),
        iterations_(config.iterations),
        overlap_(config.overlap),
        sim_(network, placement, sim_params, Rng(11), faults, fault_origin) {
    partition.validate(config.n);
    const std::vector<float> init = make_initial_grid(n_);
    const auto ranges = partition.block_ranges();
    ranks_.reserve(placement.size());
    for (int r = 0; r < sim_.size(); ++r) {
      RankState& rs = ranks_.emplace_back(r, sim_.size());
      rs.lo = static_cast<int>(ranges[static_cast<std::size_t>(r)].first);
      rs.hi = static_cast<int>(ranges[static_cast<std::size_t>(r)].second);
      const int rows = rs.hi - rs.lo;
      rs.cur.assign(static_cast<std::size_t>(rows + 2) * n_, 0.0f);
      rs.next = rs.cur;
      for (int row = rs.lo; row < rs.hi; ++row) {
        std::copy_n(init.begin() + static_cast<std::ptrdiff_t>(row) * n_, n_,
                    rs.cur.begin() +
                        static_cast<std::ptrdiff_t>(row - rs.lo + 1) * n_);
      }
    }
  }

  DistributedStencilResult run() {
    const SpmdSim::Outcome outcome = sim_.run([this](int r) {
      start_iteration(ranks_[static_cast<std::size_t>(r)]);
    });
    for (const RankState& rs : ranks_) {
      NP_ASSERT(rs.iter == iterations_);
    }

    DistributedStencilResult result;
    result.elapsed = outcome.elapsed;
    result.messages = outcome.messages;
    result.grid.assign(static_cast<std::size_t>(n_) * n_, 0.0f);
    for (const RankState& rs : ranks_) {
      for (int row = rs.lo; row < rs.hi; ++row) {
        std::copy_n(rs.cur.begin() +
                        static_cast<std::ptrdiff_t>(row - rs.lo + 1) * n_,
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

  void start_iteration(RankState& rs) {
    if (rs.iter == iterations_) {
      sim_.finish();
      return;
    }
    post_recvs(rs);
    send_borders(rs);
    sim_.after_sends(rs.rank, [this, &rs] {
      if (overlap_) {
        compute_then_wait(rs);
      } else {
        wait_then_compute(rs);
      }
    });
  }

  void send_borders(RankState& rs) {
    const int rows = rs.hi - rs.lo;
    if (rs.rank > 0) {
      const std::span<const float> row(row_ptr(rs.cur, 1), n_);
      sim_.send(rs.rank, rs.rank - 1, rs.iter, mmps::encode_array(row));
    }
    if (rs.rank + 1 < sim_.size()) {
      const std::span<const float> row(row_ptr(rs.cur, rows), n_);
      sim_.send(rs.rank, rs.rank + 1, rs.iter, mmps::encode_array(row));
    }
  }

  void post_recvs(RankState& rs) {
    const int rows = rs.hi - rs.lo;
    const auto install = [this, &rs](int local_row) {
      return [this, &rs, local_row](mmps::Message msg) {
        const std::vector<float> row = mmps::decode_array<float>(msg.payload);
        NP_ASSERT(static_cast<int>(row.size()) == n_);
        std::copy(row.begin(), row.end(), row_ptr(rs.cur, local_row));
        rs.halo.arrived();
      };
    };
    if (rs.rank > 0) {
      sim_.recv(rs.rank, rs.rank - 1, rs.iter, install(0));
    }
    if (rs.rank + 1 < sim_.size()) {
      sim_.recv(rs.rank, rs.rank + 1, rs.iter, install(rows + 1));
    }
  }

  /// STEN-1: block for ghosts, then compute the whole owned block.
  void wait_then_compute(RankState& rs) {
    rs.halo.when_complete([this, &rs] {
      compute_rows(rs, rs.lo, rs.hi, [this, &rs] { finish_iteration(rs); });
    });
  }

  /// STEN-2: compute rows that need no ghosts while borders are in flight,
  /// then the first and last owned rows once the ghosts arrive.
  void compute_then_wait(RankState& rs) {
    compute_rows(rs, rs.lo + 1, rs.hi - 1, [this, &rs] {
      rs.halo.when_complete([this, &rs] {
        compute_rows(rs, rs.lo, std::min(rs.lo + 1, rs.hi), [this, &rs] {
          compute_rows(rs, std::max(rs.hi - 1, rs.lo + 1), rs.hi,
                       [this, &rs] { finish_iteration(rs); });
        });
      });
    });
  }

  /// Relax owned global rows [glo, ghi) into `next`, charging host time at
  /// 5 flops per point, then invoke the continuation.
  void compute_rows(RankState& rs, int glo, int ghi, sim::Action done) {
    glo = std::max(glo, rs.lo);
    ghi = std::min(ghi, rs.hi);
    int updated = 0;
    for (int row = glo; row < ghi; ++row) {
      if (row == 0 || row == n_ - 1) continue;  // fixed global boundary
      ++updated;
      const int lr = row - rs.lo + 1;
      const float* above = row_ptr(rs.cur, lr - 1);
      const float* here = row_ptr(rs.cur, lr);
      const float* below = row_ptr(rs.cur, lr + 1);
      float* out = row_ptr(rs.next, lr);
      out[0] = here[0];
      out[n_ - 1] = here[n_ - 1];
      for (int j = 1; j < n_ - 1; ++j) {
        out[j] = 0.25f * (above[j] + below[j] + here[j - 1] + here[j + 1]);
      }
    }
    const double ms = sim_.flop_ms(rs.rank) * 5.0 * n_ * updated;
    sim_.engine().schedule_at(sim_.charge(rs.rank, ms), std::move(done));
  }

  void finish_iteration(RankState& rs) {
    // Rows that were not relaxed (global boundary) carry over unchanged.
    const int rows = rs.hi - rs.lo;
    if (rs.lo == 0) {
      std::copy_n(row_ptr(rs.cur, 1), n_, row_ptr(rs.next, 1));
    }
    if (rs.hi == n_) {
      std::copy_n(row_ptr(rs.cur, rows), n_, row_ptr(rs.next, rows));
    }
    rs.cur.swap(rs.next);
    ++rs.iter;
    rs.halo.reset();
    start_iteration(rs);
  }

  int n_;
  int iterations_;
  bool overlap_;
  SpmdSim sim_;
  std::vector<RankState> ranks_;
};

}  // namespace

DistributedStencilResult run_distributed_stencil(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const StencilConfig& config,
    const sim::NetSimParams& sim_params, const sim::FaultPlan* faults,
    SimTime fault_origin) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  StencilRunner runner(network, placement, partition, config, sim_params,
                       faults, fault_origin);
  return runner.run();
}

}  // namespace netpart::apps
