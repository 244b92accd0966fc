#include "util/histogram.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace netpart {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  NP_REQUIRE(lo < hi, "histogram range must be non-empty");
  NP_REQUIRE(buckets >= 1, "histogram needs at least one bucket");
}

void Histogram::add(double value) {
  const double span = hi_ - lo_;
  const double pos = (value - lo_) / span * static_cast<double>(
                                                counts_.size());
  const auto clamped = static_cast<std::size_t>(std::clamp<double>(
      pos, 0.0, static_cast<double>(counts_.size() - 1)));
  ++counts_[clamped];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  NP_REQUIRE(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.counts_.size() == counts_.size(),
             "merged histograms must share one bucket layout");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

std::size_t Histogram::bucket(std::size_t index) const {
  NP_REQUIRE(index < counts_.size(), "bucket index out of range");
  return counts_[index];
}

double Histogram::bucket_lo(std::size_t index) const {
  NP_REQUIRE(index < counts_.size(), "bucket index out of range");
  return lo_ + (hi_ - lo_) * static_cast<double>(index) /
                   static_cast<double>(counts_.size());
}

std::string Histogram::render(std::size_t bar_width) const {
  std::size_t max_count = 1;
  for (std::size_t c : counts_) max_count = std::max(max_count, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        bar_width * counts_[i] / max_count);
    os << pad_left(format_double(bucket_lo(i), 2), 10) << " | "
       << std::string(bar, '#') << ' ' << counts_[i] << '\n';
  }
  return os.str();
}

}  // namespace netpart
