#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace netpart::obs {

namespace {

using H = LatencyHistogram;

// Larger samples are stored as 2^53 ns (about 104 days): far past the last
// bucket, exact as a double, and 2^11 of them still fit the u64 sum.
constexpr double kMaxNs = 9007199254740992.0;

std::uint64_t to_ns(double us) {
  const double ns = us * 1000.0;
  if (!(ns > 0.0)) return 0;  // zero, negative and NaN
  if (ns >= kMaxNs) return static_cast<std::uint64_t>(kMaxNs);
  return static_cast<std::uint64_t>(ns + 0.5);
}

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < H::kSub) return static_cast<std::size_t>(ns);
  const int octave = std::bit_width(ns) - 1 - H::kSubBits;
  if (octave >= H::kOctaves) return H::kBuckets - 1;
  return H::kSub + static_cast<std::size_t>(octave) * H::kSub +
         static_cast<std::size_t>((ns >> octave) - H::kSub);
}

double bucket_lower(std::size_t i) {
  if (i < H::kSub) return static_cast<double>(i);
  const std::size_t octave = (i - H::kSub) / H::kSub;
  const std::size_t sub = (i - H::kSub) % H::kSub;
  return static_cast<double>((H::kSub + sub) << octave);
}

double bucket_width(std::size_t i) {
  return i < H::kSub ? 1.0
                     : static_cast<double>(std::uint64_t{1}
                                           << ((i - H::kSub) / H::kSub));
}

}  // namespace

struct LatencyHistogram::Merged {
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = UINT64_MAX;
  std::uint64_t max_ns = 0;

  /// Rank q * count, interpolated inside its bucket.
  double quantile_ns(double q) const {
    const double rank = q * static_cast<double>(count);
    const auto lo = static_cast<double>(min_ns);
    const auto hi = static_cast<double>(max_ns);
    double before = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const auto c = static_cast<double>(buckets[i]);
      if (before + c >= rank) {
        const double frac = std::clamp((rank - before) / c, 0.0, 1.0);
        return std::clamp(bucket_lower(i) + frac * bucket_width(i), lo, hi);
      }
      before += c;
    }
    return hi;
  }
};

LatencyHistogram::LatencyHistogram()
    : stripes_(std::make_unique<Stripe[]>(kMetricStripes)) {}

LatencyHistogram::LatencyHistogram(double /*lo_us*/, double /*hi_us*/,
                                   std::size_t /*buckets*/)
    : LatencyHistogram() {}

void LatencyHistogram::record(double us) {
  const std::uint64_t ns = to_ns(us);
  Stripe& stripe = stripes_[this_thread_stripe()];
  stripe.buckets[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  stripe.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = stripe.min_ns.load(std::memory_order_relaxed);
  while (ns < seen && !stripe.min_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  seen = stripe.max_ns.load(std::memory_order_relaxed);
  while (ns > seen && !stripe.max_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Merged LatencyHistogram::merged() const {
  Merged m;
  for (std::size_t s = 0; s < kMetricStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c =
          stripe.buckets[i].load(std::memory_order_relaxed);
      m.buckets[i] += c;
      m.count += c;
    }
    m.sum_ns += stripe.sum_ns.load(std::memory_order_relaxed);
    m.min_ns =
        std::min(m.min_ns, stripe.min_ns.load(std::memory_order_relaxed));
    m.max_ns =
        std::max(m.max_ns, stripe.max_ns.load(std::memory_order_relaxed));
  }
  // Empty reads 0; a read racing a first record() may see its bucket
  // before its min, and min <= max keeps the quantile clamp well formed.
  m.min_ns = std::min(m.min_ns, m.max_ns);
  return m;
}

std::uint64_t LatencyHistogram::count() const { return merged().count; }

double LatencyHistogram::mean_us() const {
  const Merged m = merged();
  if (m.count == 0) return 0.0;
  return static_cast<double>(m.sum_ns) / static_cast<double>(m.count) /
         1000.0;
}

double LatencyHistogram::min_us() const {
  return static_cast<double>(merged().min_ns) / 1000.0;
}

double LatencyHistogram::max_us() const {
  return static_cast<double>(merged().max_ns) / 1000.0;
}

QuantileSummary LatencyHistogram::quantiles() const {
  const Merged m = merged();
  if (m.count == 0) return {};
  return QuantileSummary{
      .p50 = m.quantile_ns(0.50) / 1000.0,
      .p90 = m.quantile_ns(0.90) / 1000.0,
      .p95 = m.quantile_ns(0.95) / 1000.0,
      .p99 = m.quantile_ns(0.99) / 1000.0,
  };
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value != base) delta.counters.emplace(name, value - base);
  }
  for (const auto& [name, value] : after.latency_counts) {
    const auto it = before.latency_counts.find(name);
    const std::uint64_t base =
        it == before.latency_counts.end() ? 0 : it->second;
    if (value != base) delta.latency_counts.emplace(name, value - base);
  }
  return delta;
}

JsonValue snapshot_json(const MetricsSnapshot& snapshot) {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  JsonValue latencies = JsonValue::object();
  for (const auto& [name, value] : snapshot.latency_counts) {
    latencies.set(name, value);
  }
  return JsonValue::object()
      .set("counters", std::move(counters))
      .set("latency_counts", std::move(latencies));
}

}  // namespace netpart::obs
