// Fixed-width histogram for benchmark reporting (latency and cycle-time
// distributions).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace netpart {

class Histogram {
 public:
  /// Buckets span [lo, hi) evenly; values outside clamp into the end
  /// buckets.  Requires lo < hi and buckets >= 1.
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double value);

  /// Add another histogram's counts bucket by bucket.  Requires the same
  /// range and bucket count.
  void merge(const Histogram& other);

  std::size_t count() const { return total_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t bucket(std::size_t index) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Lower edge of a bucket.
  double bucket_lo(std::size_t index) const;

  /// ASCII rendering: one line per bucket with a proportional bar.
  std::string render(std::size_t bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace netpart
