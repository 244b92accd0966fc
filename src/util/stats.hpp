// Streaming and batch statistics used by the calibration benchmarks and the
// experiment harnesses (the paper reports averages over multiple runs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace netpart {

/// Welford's online mean (numerically stable) and the running maximum.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over a sample vector.
double mean(std::span<const double> xs);
/// Linear-interpolated percentile; q in [0, 1].  Requires non-empty input.
double percentile(std::vector<double> xs, double q);
/// Coefficient of determination of predictions vs observations.
double r_squared(std::span<const double> observed,
                 std::span<const double> predicted);

}  // namespace netpart
