// The partition vector (Section 4 of the paper).
//
//   A_i = number of PDUs assigned to processor p_i,   sum A_i = num_PDUs
//
// The implementation is responsible for interpreting the abstract partition:
// for the row-decomposed stencil, rank i receives the block of A_i
// consecutive rows following rank i-1's block (block_ranges()).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace netpart {

class PartitionVector {
 public:
  /// `per_rank[i]` is A_i; entries must be non-negative.
  explicit PartitionVector(std::vector<std::int64_t> per_rank);

  int num_ranks() const { return static_cast<int>(per_rank_.size()); }
  std::int64_t at(int rank) const;
  const std::vector<std::int64_t>& values() const { return per_rank_; }

  /// sum A_i.
  std::int64_t total() const;

  /// Throws InvalidArgument unless total() == num_pdus and every rank has
  /// at least one PDU (a rank with zero PDUs should not have been selected).
  void validate(std::int64_t num_pdus) const;

  /// Contiguous block decomposition: rank i owns PDUs
  /// [ranges[i].first, ranges[i].second).
  std::vector<std::pair<std::int64_t, std::int64_t>> block_ranges() const;

  /// "60 0" / "171 86" style rendering used by the Table 1 bench.
  std::string to_string() const;

 private:
  std::vector<std::int64_t> per_rank_;
};

/// Divide `num_pdus` PDUs across ranks in proportion to positive `weights`
/// (largest-remainder rounding, remainder to the largest fractional parts,
/// ties to earlier ranks).  Every rank receives at least one PDU; requires
/// num_pdus >= weights.size().  This is the integer realisation of the
/// paper's Eq. 3 -- the caller chooses the weights (1/S_i for nominal
/// speeds, observed rates for dynamic repartitioning).
PartitionVector proportional_partition(std::span<const double> weights,
                                       std::int64_t num_pdus);

}  // namespace netpart
