// Log-linear latency histogram for the end-to-end benchmark.
//
// Fixed size (no allocation after construction, so the client loops never
// touch the heap), one per thread, merged exactly after the threads join.
// Values are nanoseconds.  Below 2^kSubBits every value has its own bucket;
// above, each power of two is split into 2^kSubBits equal buckets, so a
// bucket spans at most 1/128 of its lower bound (< 1 % relative error).
// Quantiles interpolate linearly inside the bucket by rank, which keeps two
// runs with the same bucket distinguishable.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace netpart::e2e {

class LogHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kOctaves = 32;  // values up to 2^(7+32) ns ~ 550 s
  static constexpr std::size_t kBuckets = kSub + kOctaves * kSub;

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
    max_ = std::max(max_, ns);
  }

  void merge(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max_ns() const { return max_; }

  /// q in [0, 1]; 0 when empty.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double before = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (before + c >= rank) {
        const double frac = std::clamp((rank - before) / c, 0.0, 1.0);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      before += c;
    }
    return static_cast<double>(max_);
  }

  /// Mean of the samples above the q-quantile (bucket midpoints): the
  /// tail's weight, which unlike the quantile itself moves smoothly as the
  /// share of slow samples crosses 1 - q.
  double tail_mean_ns(double q) const {
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double before = 0.0;
    double sum = 0.0;
    double n = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      const double take = before + c - std::max(before, rank);
      if (take > 0.0) {
        sum += take * (static_cast<double>(lower(i)) +
                       0.5 * static_cast<double>(width(i)));
        n += take;
      }
      before += c;
    }
    return n > 0.0 ? sum / n : 0.0;
  }

  /// Samples strictly above the q-quantile (the tail a percentile rests on).
  std::uint64_t beyond(double q) const {
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    return count_ - static_cast<std::uint64_t>(rank);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int octave = std::min(msb - kSubBits, kOctaves - 1);
    const int shift = msb - kSubBits;
    const std::uint64_t sub =
        std::min<std::uint64_t>((v >> shift) - kSub, kSub - 1);
    return static_cast<std::size_t>(kSub + octave * kSub + sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t octave = (i - kSub) / kSub;
    const std::uint64_t sub = (i - kSub) % kSub;
    return (kSub + sub) << octave;
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace netpart::e2e
