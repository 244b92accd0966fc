// Telemetry primitives shared by every subsystem (see DESIGN.md §9).
//
// The partitioner, estimator, adaptive executor, MMPS, and the service all
// meter through this one vocabulary.  Callers resolve a metric once
// (registry mutex) and then update it lock-free (counters) or under a
// short per-stripe lock (histograms), never the registry's.
//
// Both metric types are striped per thread: kMetricStripes cache-line-
// aligned stripes, picked by this_thread_id(), so threads that record
// into one metric do not share a cache line or a lock (up to
// kMetricStripes threads).  Reads merge the stripes in stripe order; the
// merged value is the one an unstriped metric would hold -- a counter's
// sum exactly, a histogram's buckets, count, min and max exactly and its
// mean up to floating-point reassociation.
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
#include <memory>
#include <mutex>
#include <string>

#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

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

/// Latency distribution: a fixed-width histogram (drives the p50/p95/p99
/// quantile estimates) plus exact running mean/min/max.
class LatencyHistogram {
 public:
  /// Range in microseconds; samples outside clamp into the end buckets.
  LatencyHistogram(double lo_us, double hi_us, std::size_t buckets);

  void record(double us);

  std::size_t count() const;
  double mean_us() const;
  double min_us() const;
  double max_us() const;
  /// Interpolated from the histogram buckets (empty summary when count==0).
  QuantileSummary quantiles() const;

 private:
  struct alignas(64) Stripe {
    Stripe(double lo_us, double hi_us, std::size_t buckets)
        : histogram(lo_us, hi_us, buckets) {}
    mutable std::mutex mutex;
    Histogram histogram;
    RunningStats stats;
  };

  /// The stripes' running stats merged in stripe order.
  RunningStats merged_stats() const;

  std::array<std::unique_ptr<Stripe>, kMetricStripes> stripes_;
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

/// One metric per line ("counter <name> <value>" / "latency <name> count
/// <n>"), name-ordered: byte-identical for identical snapshots.
std::string snapshot_text(const MetricsSnapshot& snapshot);

}  // namespace netpart::obs
