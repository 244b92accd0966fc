#include "dp/partition_vector.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace netpart {

PartitionVector::PartitionVector(std::vector<std::int64_t> per_rank)
    : per_rank_(std::move(per_rank)) {
  NP_REQUIRE(!per_rank_.empty(), "partition vector must be non-empty");
  for (std::int64_t a : per_rank_) {
    NP_REQUIRE(a >= 0, "partition entries must be non-negative");
  }
}

std::int64_t PartitionVector::at(int rank) const {
  NP_REQUIRE(rank >= 0 && rank < num_ranks(), "rank out of range");
  return per_rank_[static_cast<std::size_t>(rank)];
}

std::int64_t PartitionVector::total() const {
  return std::accumulate(per_rank_.begin(), per_rank_.end(),
                         std::int64_t{0});
}

void PartitionVector::validate(std::int64_t num_pdus) const {
  NP_REQUIRE(total() == num_pdus,
             "partition vector must cover the whole data domain");
  for (std::int64_t a : per_rank_) {
    NP_REQUIRE(a > 0, "every selected processor must receive work");
  }
}

std::vector<std::pair<std::int64_t, std::int64_t>>
PartitionVector::block_ranges() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  ranges.reserve(per_rank_.size());
  std::int64_t offset = 0;
  for (std::int64_t a : per_rank_) {
    ranges.emplace_back(offset, offset + a);
    offset += a;
  }
  return ranges;
}

PartitionVector proportional_partition(std::span<const double> weights,
                                       std::int64_t num_pdus) {
  NP_REQUIRE(!weights.empty(), "need at least one rank");
  NP_REQUIRE(num_pdus >= static_cast<std::int64_t>(weights.size()),
             "cannot give every rank a PDU");
  double weight_sum = 0.0;
  for (double w : weights) {
    NP_REQUIRE(w > 0.0, "weights must be positive");
    weight_sum += w;
  }

  std::vector<std::int64_t> assigned(weights.size());
  std::vector<std::pair<double, std::size_t>> fractional;
  std::int64_t used = 0;
  for (std::size_t r = 0; r < weights.size(); ++r) {
    const double ideal =
        static_cast<double>(num_pdus) * weights[r] / weight_sum;
    assigned[r] = static_cast<std::int64_t>(ideal);
    used += assigned[r];
    fractional.emplace_back(ideal - static_cast<double>(assigned[r]), r);
  }
  std::stable_sort(
      fractional.begin(), fractional.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::int64_t remainder = num_pdus - used;
  NP_ASSERT(remainder >= 0 &&
            remainder <= static_cast<std::int64_t>(weights.size()));
  for (std::size_t k = 0; remainder > 0; ++k, --remainder) {
    ++assigned[fractional[k % fractional.size()].second];
  }

  // With extreme weight skew the rounding can starve a rank; steal single
  // PDUs from the largest assignments.
  for (std::size_t r = 0; r < assigned.size(); ++r) {
    while (assigned[r] == 0) {
      const auto donor = std::max_element(assigned.begin(), assigned.end());
      NP_ASSERT(*donor > 1);
      --*donor;
      ++assigned[r];
    }
  }
  return PartitionVector(std::move(assigned));
}

std::string PartitionVector::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < per_rank_.size(); ++i) {
    if (i > 0) os << ' ';
    os << per_rank_[i];
  }
  return os.str();
}

}  // namespace netpart
