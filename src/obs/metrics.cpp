#include "obs/metrics.hpp"

#include "analysis/race/annotations.hpp"

namespace netpart::obs {

LatencyHistogram::LatencyHistogram(double lo_us, double hi_us,
                                   std::size_t buckets) {
  for (auto& stripe : stripes_) {
    stripe = std::make_unique<Stripe>(lo_us, hi_us, buckets);
    // npracer contract: each stripe's histogram and running stats
    // (tracked as one location) move only under that stripe's mutex.
    NP_GUARDED_BY(&stripe->stats, &stripe->mutex, "obs.latency.stats");
  }
}

void LatencyHistogram::record(double us) {
  Stripe& stripe = *stripes_[this_thread_stripe()];
  std::lock_guard lock(stripe.mutex);
  NP_LOCK_SCOPE(&stripe.mutex, "obs.latency.mutex");
  NP_WRITE(&stripe.stats, "obs.latency.stats");
  stripe.histogram.add(us);
  stripe.stats.add(us);
}

RunningStats LatencyHistogram::merged_stats() const {
  RunningStats merged;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    NP_LOCK_SCOPE(&stripe->mutex, "obs.latency.mutex");
    NP_READ(&stripe->stats, "obs.latency.stats");
    merged.merge(stripe->stats);
  }
  return merged;
}

std::size_t LatencyHistogram::count() const { return merged_stats().count(); }

double LatencyHistogram::mean_us() const { return merged_stats().mean(); }

double LatencyHistogram::min_us() const { return merged_stats().min(); }

double LatencyHistogram::max_us() const { return merged_stats().max(); }

QuantileSummary LatencyHistogram::quantiles() const {
  Histogram merged(stripes_[0]->histogram.lo(), stripes_[0]->histogram.hi(),
                   stripes_[0]->histogram.bucket_count());
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mutex);
    NP_LOCK_SCOPE(&stripe->mutex, "obs.latency.mutex");
    NP_READ(&stripe->stats, "obs.latency.stats");
    merged.merge(stripe->histogram);
  }
  if (merged.count() == 0) return {};
  return summarize_quantiles(merged);
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

std::string snapshot_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += "counter " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.latency_counts) {
    out += "latency " + name + " count " + std::to_string(value) + "\n";
  }
  return out;
}

}  // namespace netpart::obs
