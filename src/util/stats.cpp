#include "util/stats.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netpart {

void RunningStats::add(double x) {
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double mean(std::span<const double> xs) {
  RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double percentile(std::vector<double> xs, double q) {
  NP_REQUIRE(!xs.empty(), "percentile of empty sample");
  NP_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= xs.size()) return xs.back();
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double r_squared(std::span<const double> observed,
                 std::span<const double> predicted) {
  NP_REQUIRE(observed.size() == predicted.size() && !observed.empty(),
             "r_squared needs equal-length non-empty samples");
  const double obs_mean = mean(observed);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double r = observed[i] - predicted[i];
    const double d = observed[i] - obs_mean;
    ss_res += r * r;
    ss_tot += d * d;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace netpart
