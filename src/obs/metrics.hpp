// Telemetry primitives shared by every subsystem (see DESIGN.md §9).
//
// The partitioner, estimator, adaptive executor, MMPS, and the service all
// meter through this one vocabulary.  Callers resolve a metric once
// (registry mutex) and then update it lock-free: a counter with one relaxed
// add, a latency histogram with two relaxed adds and, only on a new
// extreme (or a stripe's first record), a compare-and-swap.
//
// Both metric types are striped per thread: kMetricStripes cache-line-
// aligned stripes, picked by this_thread_id(), so threads that record
// into one metric do not share a cache line (up to kMetricStripes
// threads).  Reads merge the stripes; every merged value -- a counter's
// sum, a histogram's buckets, count, integer nanosecond sum, min and max
// -- is exactly what one unstriped metric would hold.
//
// MetricsSnapshot captures the registry's counter values and histogram
// counts at a point in time; snapshot_delta() subtracts two snapshots so
// benchmarks can report what one phase cost without resetting anything.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/json.hpp"

namespace netpart::obs {

/// Stable small integer identifying the calling thread (assigned on first
/// use, process-wide).  Chrome trace events use it as `tid`; metrics use
/// it to pick a stripe.
std::uint32_t this_thread_id();

/// Stripes per Counter / LatencyHistogram.
inline constexpr std::size_t kMetricStripes = 8;

/// The calling thread's stripe index.
inline std::size_t this_thread_stripe() {
  return this_thread_id() % kMetricStripes;
}

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    stripes_[this_thread_stripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Stripe, kMetricStripes> stripes_;
};

/// The tail summary the latency exports report.
struct QuantileSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Latency distribution over integer nanoseconds in log-linear buckets: no
/// range to choose, one layout for every latency from a cache hit to a
/// failover chain.  Below 32 ns each nanosecond has its own bucket; above,
/// each power of two splits into 32 equal buckets, so a bucket spans at
/// most 1/32 of its lower bound.  40 octaves reach 2^45 ns (about 9.8 h);
/// larger samples share the last bucket, and max stays exact.
///
/// record() takes no lock and divides by nothing.  A stripe (10.5 KB) is
/// allocated by the first record() that lands on it and published by a
/// compare-and-swap, so a histogram holds only the stripes its recording
/// threads use; after that, record() allocates nothing.  Count, mean (from
/// the integer sum), min and max are exact; quantiles interpolate by rank
/// inside their bucket, clamped to [min, max].
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr int kOctaves = 40;
  static constexpr std::size_t kBuckets = kSub + kOctaves * kSub;

  LatencyHistogram() = default;
  /// The fixed-width histogram's signature, kept for callers built before
  /// the log-linear layout; the range is ignored.
  [[deprecated("LatencyHistogram has no range; use the default constructor")]]
  LatencyHistogram(double lo_us, double hi_us, std::size_t buckets);
  ~LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Negative and NaN samples record as 0.
  void record(double us);

  std::uint64_t count() const;
  double mean_us() const;
  double min_us() const;
  double max_us() const;
  /// Empty summary when count() == 0.
  QuantileSummary quantiles() const;

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> sum_ns{0};
    std::atomic<std::uint64_t> min_ns{UINT64_MAX};
    std::atomic<std::uint64_t> max_ns{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
  };
  struct Merged;

  /// Allocate stripe `i` and publish it, unless another thread did first.
  Stripe* install_stripe(std::size_t i);
  Merged merged() const;

  /// Null until a record() lands on the stripe.
  std::array<std::atomic<Stripe*>, kMetricStripes> stripes_{};
};

/// Point-in-time view of a registry: counter values plus per-histogram
/// sample counts (the deterministic parts -- wall-clock latencies are
/// excluded so two identical seeded runs snapshot identically).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> latency_counts;
};

/// after - before, keeping only entries that changed (a metric absent from
/// `before` counts from zero).  Benchmarks wrap a phase in two snapshots
/// and report the delta.
MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

/// {"counters": {...}, "latency_counts": {...}} -- map order, so the
/// rendering is deterministic and name-ordered.
JsonValue snapshot_json(const MetricsSnapshot& snapshot);

}  // namespace netpart::obs
