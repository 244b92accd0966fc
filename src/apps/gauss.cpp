#include "apps/gauss.hpp"

#include <cmath>
#include <utility>

#include "apps/spmd_sim.hpp"
#include "mmps/coercion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netpart::apps {

ComputationSpec make_gauss_spec(const GaussConfig& config) {
  NP_REQUIRE(config.n >= 2, "need at least a 2x2 system");
  const int n = config.n;

  ComputationPhaseSpec eliminate;
  eliminate.name = "eliminate";
  eliminate.num_pdus = [n] { return static_cast<std::int64_t>(n); };
  // Total elimination work is ~2n^3/3 flops over n cycles and n rows:
  // (2/3) n per PDU per cycle on average.
  eliminate.ops_per_pdu = [n] { return 2.0 / 3.0 * n; };
  eliminate.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec pivot;
  pivot.name = "pivot";
  pivot.topology = [] { return Topology::Broadcast; };
  // Average pivot row: half the columns remain, in doubles, plus rhs.
  pivot.bytes_per_message = [n](std::int64_t) {
    return static_cast<std::int64_t>(8) * (n / 2 + 2);
  };

  return ComputationSpec("gauss", {eliminate}, {pivot}, /*iterations=*/n);
}

LinearSystem make_test_system(int n, std::uint64_t seed) {
  NP_REQUIRE(n >= 2, "need at least a 2x2 system");
  LinearSystem sys;
  sys.n = n;
  sys.a.resize(static_cast<std::size_t>(n) * n);
  sys.b.resize(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double off_diag = 0.0;
    for (int j = 0; j < n; ++j) {
      const double v = 2.0 * rng.next_double() - 1.0;
      sys.a[static_cast<std::size_t>(i) * n + j] = v;
      if (j != i) off_diag += std::abs(v);
    }
    // Diagonal dominance keeps the system comfortably well conditioned.
    sys.a[static_cast<std::size_t>(i) * n + i] =
        off_diag + 1.0 + rng.next_double();
    sys.b[static_cast<std::size_t>(i)] = 2.0 * rng.next_double() - 1.0;
  }
  return sys;
}

std::vector<double> solve_sequential(LinearSystem sys) {
  const int n = sys.n;
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    int pivot = k;
    double best = std::abs(sys.a[static_cast<std::size_t>(k) * n + k]);
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(sys.a[static_cast<std::size_t>(i) * n + k]);
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    NP_REQUIRE(best > 1e-12, "singular system");
    if (pivot != k) {
      for (int j = 0; j < n; ++j) {
        std::swap(sys.a[static_cast<std::size_t>(k) * n + j],
                  sys.a[static_cast<std::size_t>(pivot) * n + j]);
      }
      std::swap(sys.b[static_cast<std::size_t>(k)],
                sys.b[static_cast<std::size_t>(pivot)]);
    }
    perm[static_cast<std::size_t>(k)] = pivot;
    const double diag = sys.a[static_cast<std::size_t>(k) * n + k];
    for (int i = k + 1; i < n; ++i) {
      const double factor =
          sys.a[static_cast<std::size_t>(i) * n + k] / diag;
      if (factor == 0.0) continue;
      for (int j = k; j < n; ++j) {
        sys.a[static_cast<std::size_t>(i) * n + j] -=
            factor * sys.a[static_cast<std::size_t>(k) * n + j];
      }
      sys.b[static_cast<std::size_t>(i)] -=
          factor * sys.b[static_cast<std::size_t>(k)];
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double acc = sys.b[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) {
      acc -= sys.a[static_cast<std::size_t>(i) * n + j] *
             x[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] =
        acc / sys.a[static_cast<std::size_t>(i) * n + i];
  }
  return x;
}

std::vector<std::vector<int>> map_rows(const PartitionVector& partition,
                                       int n, RowMapping mapping) {
  partition.validate(n);
  const int ranks = partition.num_ranks();
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(ranks));
  if (mapping == RowMapping::Block) {
    const auto ranges = partition.block_ranges();
    for (int r = 0; r < ranks; ++r) {
      for (std::int64_t g = ranges[static_cast<std::size_t>(r)].first;
           g < ranges[static_cast<std::size_t>(r)].second; ++g) {
        rows[static_cast<std::size_t>(r)].push_back(static_cast<int>(g));
      }
    }
    return rows;
  }
  // Weighted-cyclic: deal each row to the rank furthest behind its
  // proportional share (largest deficit first, ties to the lower rank),
  // never exceeding its quota A_r.  Every prefix of the matrix is then
  // split in approximately the A ratio, so elimination retires work
  // uniformly across ranks.
  std::vector<std::int64_t> dealt(static_cast<std::size_t>(ranks), 0);
  for (int g = 0; g < n; ++g) {
    int chosen = -1;
    double best_deficit = -1.0;
    for (int r = 0; r < ranks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (dealt[ri] >= partition.at(r)) continue;
      const double target = static_cast<double>(partition.at(r)) *
                            static_cast<double>(g + 1) /
                            static_cast<double>(n);
      const double deficit = target - static_cast<double>(dealt[ri]);
      if (deficit > best_deficit) {
        best_deficit = deficit;
        chosen = r;
      }
    }
    NP_ASSERT(chosen >= 0);
    rows[static_cast<std::size_t>(chosen)].push_back(g);
    ++dealt[static_cast<std::size_t>(chosen)];
  }
  return rows;
}

namespace {

/// One owned matrix row.
struct OwnedRow {
  int global = 0;
  bool active = true;  ///< not yet elected as a pivot
  std::vector<double> a;
  double b = 0.0;
};

/// A pivot row recorded at the root, in elimination order.
struct PivotRecord {
  int column = 0;          ///< elimination step k
  std::vector<double> a;   ///< columns k..n-1
  double b = 0.0;
};

struct GaussRank {
  int rank = 0;
  std::vector<OwnedRow> rows;
  int step = 0;
  int candidates_needed = 0;  ///< root only: outstanding candidate messages
  /// Root only: best candidate so far for the current step
  double best_value = -1.0;
  std::vector<double> best_payload;
};

class GaussRunner {
 public:
  GaussRunner(const Network& network, const Placement& placement,
              const PartitionVector& partition, const GaussConfig& config,
              std::uint64_t seed, const sim::NetSimParams& sim_params)
      : n_(config.n),
        sim_(network, placement, sim_params, Rng(seed ^ 0x9a55)) {
    partition.validate(config.n);
    const LinearSystem system = make_test_system(config.n, seed);
    const auto mapping = map_rows(partition, config.n, config.mapping);
    ranks_.resize(placement.size());
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      ranks_[r].rank = static_cast<int>(r);
      for (const int row : mapping[r]) {
        OwnedRow owned;
        owned.global = row;
        owned.a.assign(
            system.a.begin() + static_cast<std::ptrdiff_t>(row) * n_,
            system.a.begin() + static_cast<std::ptrdiff_t>(row + 1) * n_);
        owned.b = system.b[static_cast<std::size_t>(row)];
        ranks_[r].rows.push_back(std::move(owned));
      }
    }
  }

  DistributedGaussResult run() {
    const SpmdSim::Outcome outcome = sim_.run([this](int r) {
      begin_step(ranks_[static_cast<std::size_t>(r)]);
    });
    NP_ASSERT(static_cast<int>(pivots_.size()) == n_);

    DistributedGaussResult result;
    result.elapsed = outcome.elapsed;
    result.messages = outcome.messages;
    result.x = back_substitute();
    return result;
  }

 private:
  int active_rows(const GaussRank& gr) const {
    int count = 0;
    for (const OwnedRow& row : gr.rows) {
      if (row.active) ++count;
    }
    return count;
  }

  /// Candidate payload: [global_index, |value|, b, a[k..n-1]...];
  /// global_index == -1 flags "no active rows here".
  std::vector<double> make_candidate(const GaussRank& gr, int k) const {
    const OwnedRow* best = nullptr;
    for (const OwnedRow& row : gr.rows) {
      if (!row.active) continue;
      if (best == nullptr ||
          std::abs(row.a[static_cast<std::size_t>(k)]) >
              std::abs(best->a[static_cast<std::size_t>(k)])) {
        best = &row;
      }
    }
    std::vector<double> payload;
    if (best == nullptr) {
      payload = {-1.0, 0.0, 0.0};
      return payload;
    }
    payload.reserve(static_cast<std::size_t>(n_ - k) + 3);
    payload.push_back(static_cast<double>(best->global));
    payload.push_back(std::abs(best->a[static_cast<std::size_t>(k)]));
    payload.push_back(best->b);
    payload.insert(payload.end(), best->a.begin() + k, best->a.end());
    return payload;
  }

  void begin_step(GaussRank& gr) {
    if (gr.step == n_) {
      sim_.finish();
      return;
    }
    const int k = gr.step;

    // Local pivot selection: one comparison per active row.
    const SimTime select_end =
        sim_.charge(gr.rank, sim_.flop_ms(gr.rank) * active_rows(gr));
    sim_.engine().schedule_at(select_end, [this, &gr, k] {
      const std::vector<double> candidate = make_candidate(gr, k);
      if (gr.rank == 0) {
        gr.best_value = candidate[1];
        gr.best_payload = candidate;
        gr.candidates_needed = static_cast<int>(ranks_.size()) - 1;
        if (gr.candidates_needed == 0) {
          elect_and_broadcast(gr, k);
        } else {
          collect_candidates(gr, k);
        }
      } else {
        sim_.send(gr.rank, 0, k,
                  mmps::encode_array(std::span<const double>(candidate)));
        // Wait for the elected pivot row from the root.
        sim_.recv(gr.rank, 0, k, [this, &gr, k](mmps::Message msg) {
          apply_pivot(gr, k, mmps::decode_array<double>(msg.payload));
        });
      }
    });
  }

  void collect_candidates(GaussRank& root, int k) {
    for (int r = 1; r < sim_.size(); ++r) {
      sim_.recv(0, r, k, [this, &root, k](mmps::Message msg) {
        const std::vector<double> candidate =
            mmps::decode_array<double>(msg.payload);
        if (candidate[0] >= 0.0 && candidate[1] > root.best_value) {
          root.best_value = candidate[1];
          root.best_payload = candidate;
        }
        if (--root.candidates_needed == 0) {
          elect_and_broadcast(root, k);
        }
      });
    }
  }

  void elect_and_broadcast(GaussRank& root, int k) {
    NP_REQUIRE(root.best_payload[0] >= 0.0 && root.best_value > 1e-12,
               "singular system in distributed elimination");
    // Record the winning row for back substitution.
    PivotRecord record;
    record.column = k;
    record.b = root.best_payload[2];
    record.a.assign(root.best_payload.begin() + 3, root.best_payload.end());
    pivots_.push_back(std::move(record));

    for (int r = 1; r < sim_.size(); ++r) {
      sim_.send(0, r, k,
                mmps::encode_array(
                    std::span<const double>(root.best_payload)));
    }
    apply_pivot(root, k, root.best_payload);
  }

  void apply_pivot(GaussRank& gr, int k, std::vector<double> payload) {
    const int pivot_global = static_cast<int>(payload[0]);
    const double pivot_b = payload[2];
    const std::span<const double> pivot_row(payload.data() + 3,
                                            payload.size() - 3);
    NP_ASSERT(static_cast<int>(pivot_row.size()) == n_ - k);

    int updated = 0;
    for (OwnedRow& row : gr.rows) {
      if (row.global == pivot_global) {
        row.active = false;  // frozen as this step's pivot
        continue;
      }
      if (!row.active) continue;
      ++updated;
      const double diag = pivot_row[0];
      const double factor = row.a[static_cast<std::size_t>(k)] / diag;
      for (int j = k; j < n_; ++j) {
        row.a[static_cast<std::size_t>(j)] -=
            factor * pivot_row[static_cast<std::size_t>(j - k)];
      }
      row.b -= factor * pivot_b;
    }

    const double ms = sim_.flop_ms(gr.rank) * 2.0 *
                      static_cast<double>(n_ - k) * updated;
    const SimTime end = sim_.charge(gr.rank, ms);
    ++gr.step;
    sim_.engine().schedule_at(end, [this, &gr] { begin_step(gr); });
  }

  std::vector<double> back_substitute() const {
    std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
    for (int k = n_ - 1; k >= 0; --k) {
      const PivotRecord& p = pivots_[static_cast<std::size_t>(k)];
      double acc = p.b;
      for (int j = k + 1; j < n_; ++j) {
        acc -= p.a[static_cast<std::size_t>(j - k)] *
               x[static_cast<std::size_t>(j)];
      }
      x[static_cast<std::size_t>(k)] = acc / p.a[0];
    }
    return x;
  }

  int n_;
  SpmdSim sim_;
  std::vector<GaussRank> ranks_;
  std::vector<PivotRecord> pivots_;  ///< in elimination order (root)
};

}  // namespace

DistributedGaussResult run_distributed_gauss(
    const Network& network, const Placement& placement,
    const PartitionVector& partition, const GaussConfig& config,
    std::uint64_t seed, const sim::NetSimParams& sim_params) {
  NP_REQUIRE(!placement.empty(), "placement must be non-empty");
  GaussRunner runner(network, placement, partition, config, seed,
                     sim_params);
  return runner.run();
}

}  // namespace netpart::apps
