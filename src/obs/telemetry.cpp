#include "obs/telemetry.hpp"

#include <algorithm>

#include "analysis/race/annotations.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace netpart::obs {

namespace {
constexpr std::size_t kDefaultRecordCapacity = 1 << 18;  // 262144 events

std::atomic<std::uint32_t> g_next_thread_id{0};
}  // namespace

std::uint32_t this_thread_id() {
  thread_local const std::uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TelemetryRegistry::TelemetryRegistry(bool enabled)
    : enabled_(enabled),
      record_capacity_(kDefaultRecordCapacity),
      wall_origin_(std::chrono::steady_clock::now()) {
  // npracer contract: the metric maps move under metrics_mutex_; the span
  // and instant buffers (tracked as one location) under events_mutex_.
  NP_GUARDED_BY(&counters_, &metrics_mutex_, "obs.telemetry.counters");
  NP_GUARDED_BY(&spans_, &events_mutex_, "obs.telemetry.events");
}

TelemetryRegistry& TelemetryRegistry::global() {
  static TelemetryRegistry* registry =
      new TelemetryRegistry(/*enabled=*/false);  // leaked: outlives statics
  return *registry;
}

void TelemetryRegistry::set_trace_seed(std::uint64_t seed,
                                       std::uint64_t stream) {
  trace_ids_.reset(seed, stream);
}

void TelemetryRegistry::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  if (this == &global()) {
    detail_global_enabled.store(enabled, std::memory_order_relaxed);
  }
}

Counter& TelemetryRegistry::counter(const std::string& name) {
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_WRITE(&counters_, "obs.telemetry.counters");
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    // Counter::add is a relaxed fetch_add by design: metric increments
    // are deliberately unordered against each other, and readers only see
    // totals through value()'s own atomic load.
    NP_BENIGN_RACE(slot.get(), "obs.counter",
                   "relaxed fetch_add counter; increments need no ordering");
  }
  return *slot;
}

LatencyHistogram& TelemetryRegistry::latency(const std::string& name) {
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_WRITE(&counters_, "obs.telemetry.counters");
  auto& slot = latencies_[name];
  if (!slot) {
    slot = std::make_unique<LatencyHistogram>();
    // Like a counter, a histogram stripe is relaxed atomics: bucket and
    // sum adds and min/max updates need no ordering, and readers see them
    // only through their own atomic loads.
    NP_BENIGN_RACE(slot.get(), "obs.latency",
                   "relaxed atomic stripes; records need no ordering");
  }
  return *slot;
}

MetricsSnapshot TelemetryRegistry::snapshot() const {
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_READ(&counters_, "obs.telemetry.counters");
  MetricsSnapshot snapshot;
  for (const auto& [name, c] : counters_) {
    snapshot.counters.emplace(name, c->value());
  }
  for (const auto& [name, h] : latencies_) {
    snapshot.latency_counts.emplace(name, h->count());
  }
  return snapshot;
}

JsonValue TelemetryRegistry::to_json() const {
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_READ(&counters_, "obs.telemetry.counters");
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name, c->value());
  }
  JsonValue latencies = JsonValue::object();
  for (const auto& [name, h] : latencies_) {
    const QuantileSummary q = h->quantiles();
    latencies.set(name,
                  JsonValue::object()
                      .set("count", h->count())
                      .set("mean_us", h->mean_us())
                      .set("min_us", h->min_us())
                      .set("max_us", h->max_us())
                      .set("p50_us", q.p50)
                      .set("p90_us", q.p90)
                      .set("p95_us", q.p95)
                      .set("p99_us", q.p99));
  }
  return JsonValue::object()
      .set("counters", std::move(counters))
      .set("latencies", std::move(latencies));
}

void TelemetryRegistry::write_csv(std::ostream& os) const {
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_READ(&counters_, "obs.telemetry.counters");
  CsvWriter csv(os, {"kind", "name", "field", "value"});
  for (const auto& [name, c] : counters_) {
    csv.write_row({"counter", name, "value", std::to_string(c->value())});
  }
  const auto row = [&csv](const std::string& name, const std::string& field,
                          double v) {
    csv.write_row({"latency", name, field, format_double(v, 3)});
  };
  for (const auto& [name, h] : latencies_) {
    const QuantileSummary q = h->quantiles();
    csv.write_row({"latency", name, "count", std::to_string(h->count())});
    row(name, "mean_us", h->mean_us());
    row(name, "min_us", h->min_us());
    row(name, "max_us", h->max_us());
    row(name, "p50_us", q.p50);
    row(name, "p90_us", q.p90);
    row(name, "p95_us", q.p95);
    row(name, "p99_us", q.p99);
  }
}

std::string TelemetryRegistry::metrics_text(std::string_view dimension) const {
  // Built piecewise rather than via `"{" + std::string(dimension) + "}"`:
  // that operator+ chain trips GCC 12's -Wrestrict false positive
  // (PR 105329) under -Werror in the strict preset.
  std::string label;
  if (!dimension.empty()) {
    label.reserve(dimension.size() + 2);
    label.push_back('{');
    label.append(dimension);
    label.push_back('}');
  }
  std::lock_guard lock(metrics_mutex_);
  NP_LOCK_SCOPE(&metrics_mutex_, "obs.telemetry.metrics_mutex");
  NP_READ(&counters_, "obs.telemetry.counters");
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += "counter " + name + label + " " + std::to_string(c->value()) +
           "\n";
  }
  for (const auto& [name, h] : latencies_) {
    const QuantileSummary q = h->quantiles();
    out += "latency " + name + label + " count " +
           std::to_string(h->count()) + " mean_us " +
           format_double(h->mean_us(), 3) + " min_us " +
           format_double(h->min_us(), 3) + " max_us " +
           format_double(h->max_us(), 3) + " p50_us " +
           format_double(q.p50, 3) + " p90_us " + format_double(q.p90, 3) +
           " p95_us " + format_double(q.p95, 3) + " p99_us " +
           format_double(q.p99, 3) + "\n";
  }
  return out;
}

void TelemetryRegistry::record_span(SpanRecord record) {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_WRITE(&spans_, "obs.telemetry.events");
  if (spans_.size() + instants_.size() >= record_capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(record));
}

void TelemetryRegistry::record_instant(InstantRecord record) {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_WRITE(&spans_, "obs.telemetry.events");
  if (spans_.size() + instants_.size() >= record_capacity_) {
    ++dropped_;
    return;
  }
  instants_.push_back(std::move(record));
}

std::vector<SpanRecord> TelemetryRegistry::spans() const {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_READ(&spans_, "obs.telemetry.events");
  return {spans_.begin(), spans_.end()};
}

std::vector<InstantRecord> TelemetryRegistry::instants() const {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_READ(&spans_, "obs.telemetry.events");
  return {instants_.begin(), instants_.end()};
}

std::size_t TelemetryRegistry::span_count() const {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_READ(&spans_, "obs.telemetry.events");
  return spans_.size();
}

std::uint64_t TelemetryRegistry::dropped_records() const {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_READ(&spans_, "obs.telemetry.events");
  return dropped_;
}

void TelemetryRegistry::set_record_capacity(std::size_t capacity) {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_WRITE(&spans_, "obs.telemetry.events");
  record_capacity_ = capacity;
}

void TelemetryRegistry::clear_events() {
  std::lock_guard lock(events_mutex_);
  NP_LOCK_SCOPE(&events_mutex_, "obs.telemetry.events_mutex");
  NP_WRITE(&spans_, "obs.telemetry.events");
  spans_.clear();
  instants_.clear();
  dropped_ = 0;
}

double TelemetryRegistry::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - wall_origin_)
      .count();
}

std::string merged_metrics_text(const std::vector<LabelledRegistry>& sources) {
  std::vector<std::string> lines;
  for (const LabelledRegistry& source : sources) {
    const std::string text = source.registry->metrics_text(source.dimension);
    std::size_t begin = 0;
    while (begin < text.size()) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      if (end > begin) lines.push_back(text.substr(begin, end - begin));
      begin = end + 1;
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace netpart::obs
