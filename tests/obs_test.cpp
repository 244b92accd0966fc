// Tests for the unified telemetry layer (src/obs/): counters, snapshots,
// RAII spans on both clocks, the Chrome-trace exporter (round-tripped
// through the util/json parser), the sim TraceLog bridge, and the
// determinism of the text export.  ObsThreadedTest matches the tsan test
// preset's filter, so its concurrency cases also run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/estimator.hpp"
#include "core/general.hpp"
#include "core/partitioner.hpp"
#include "net/availability.hpp"
#include "net/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/sim_bridge.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/netsim.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace netpart {
namespace {

using obs::Span;
using obs::TelemetryRegistry;

// ------------------------------------------------------------- metrics

TEST(ObsMetricsTest, CounterFindOrCreateAndAdd) {
  TelemetryRegistry reg;
  obs::Counter& c = reg.counter("x");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_EQ(&reg.counter("x"), &c);
  EXPECT_EQ(reg.counter("y").value(), 0u);
}

TEST(ObsMetricsTest, SnapshotDeltaKeepsOnlyChanges) {
  TelemetryRegistry reg;
  reg.counter("stable").add(10);
  reg.counter("moving").add(1);
  reg.latency("lat").record(5.0);
  const obs::MetricsSnapshot before = reg.snapshot();
  reg.counter("moving").add(2);
  reg.counter("fresh").add(7);
  reg.latency("lat").record(6.0);
  const obs::MetricsSnapshot delta =
      obs::snapshot_delta(before, reg.snapshot());

  EXPECT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters.at("moving"), 2u);
  EXPECT_EQ(delta.counters.at("fresh"), 7u);
  EXPECT_EQ(delta.counters.count("stable"), 0u);
  EXPECT_EQ(delta.latency_counts.at("lat"), 1u);
}

TEST(ObsMetricsTest, MetricsTextCoversCountersAndHistograms) {
  TelemetryRegistry reg;
  reg.counter("requests").add(3);
  reg.latency("rtt").record(10.0);
  const std::string text = reg.metrics_text();
  EXPECT_NE(text.find("counter requests 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt"), std::string::npos);
}

// ------------------------------------------------------------ histogram

// Below 32 ns each nanosecond is its own bucket; above, a bucket spans
// 1/32 of its lower edge.  Inputs no latency can have clamp instead of
// converting out of range: zero, negative and NaN record as 0, and +inf
// and samples past the last octave (2^45 ns) share the top bucket, whose
// max stays exact.  Every one of them is counted.
TEST(HistogramTest, BucketsAndClamping) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_us(), 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
  EXPECT_EQ(h.quantiles().p99, 0.0);
  for (int ns = 1; ns < 32; ++ns) h.record(ns / 1000.0);
  EXPECT_EQ(h.count(), 31u);
  EXPECT_EQ(h.mean_us(), 0.016);
  EXPECT_EQ(h.min_us(), 0.001);
  EXPECT_EQ(h.max_us(), 0.031);
  EXPECT_NEAR(h.quantiles().p50, 0.016, 0.001);

  // Two samples at 2^20 ns, the lower edge of a bucket 2^15 ns wide, hold
  // ranks 50 and 51 of 100: p50 interpolates to the bucket's middle.
  obs::LatencyHistogram edge;
  for (int i = 0; i < 49; ++i) edge.record(500.0);
  edge.record(1048.576);
  edge.record(1048.576);
  for (int i = 0; i < 49; ++i) edge.record(2000.0);
  EXPECT_DOUBLE_EQ(edge.quantiles().p50, (1048576.0 + 16384.0) / 1000.0);

  obs::LatencyHistogram degenerate;
  degenerate.record(0.0);
  degenerate.record(-3.0);
  degenerate.record(std::numeric_limits<double>::quiet_NaN());
  degenerate.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(degenerate.count(), 4u);
  EXPECT_EQ(degenerate.min_us(), 0.0);
  EXPECT_GT(degenerate.max_us(), 1e12);
  EXPECT_TRUE(std::isfinite(degenerate.mean_us()));
  EXPECT_TRUE(std::isfinite(degenerate.quantiles().p99));

  obs::LatencyHistogram huge;  // 11.6 and 23.1 days
  huge.record(1e12);
  huge.record(2e12);
  EXPECT_EQ(huge.count(), 2u);
  EXPECT_EQ(huge.min_us(), 1e12);
  EXPECT_EQ(huge.max_us(), 2e12);
  EXPECT_GE(huge.quantiles().p50, 1e12);
  EXPECT_LE(huge.quantiles().p99, 2e12);
}

// A histogram holds only the stripes its recording threads use: building
// one allocates nothing, the first record() on a stripe allocates that
// stripe, and later records on it allocate nothing.
TEST(HistogramTest, StripesAllocateOnFirstRecord) {
  const std::uint64_t before = heap_allocations();
  {
    obs::LatencyHistogram h;
    const std::uint64_t built = heap_allocations();
    h.record(5.0);
    const std::uint64_t first = heap_allocations();
    for (int i = 0; i < 100; ++i) h.record(7.0);
    const std::uint64_t warm = heap_allocations();
    EXPECT_EQ(built - before, 0u);
    EXPECT_EQ(first - built, 1u);
    EXPECT_EQ(warm - first, 0u);
    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.min_us(), 5.0);
    EXPECT_EQ(h.max_us(), 7.0);
  }
}

// Quantiles interpolate by rank inside their bucket.  Over uniform samples
// and over samples spread log-uniformly from 1 ns to 1,000 s, each of
// p50/p90/p95/p99 stays within 1/32 (relative) or 1 ns of percentile() on
// the raw samples.
TEST(HistogramQuantileTest, UniformSamplesInterpolate) {
  Rng rng(5);
  std::vector<double> uniform;
  std::vector<double> spread;
  for (int i = 0; i < 20000; ++i) {
    uniform.push_back(100.0 * rng.next_double());
    spread.push_back(1e-3 * std::pow(10.0, 12.0 * rng.next_double()));
  }
  for (const std::vector<double>* samples : {&uniform, &spread}) {
    obs::LatencyHistogram h;
    for (double us : *samples) h.record(us);
    const obs::QuantileSummary q = h.quantiles();
    const std::pair<double, double> cases[] = {
        {0.50, q.p50}, {0.90, q.p90}, {0.95, q.p95}, {0.99, q.p99}};
    for (const auto& [p, got] : cases) {
      const double want = percentile(*samples, p);
      EXPECT_NEAR(got, want, std::max(want / 32.0, 1e-3))
          << "q=" << p << (samples == &uniform ? " uniform" : " spread");
    }
  }
}

TEST(HistogramQuantileTest, SummaryIsMonotone) {
  obs::LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) h.record(rng.next_double() * 10.0);
  const obs::QuantileSummary s = h.quantiles();
  EXPECT_LE(h.min_us(), s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, h.max_us());
  EXPECT_NEAR(s.p50, 5.0, 0.5);
}

// Interpolation never leaves [min, max]: a spike reads back exactly.
TEST(HistogramQuantileTest, SingleBucketSpike) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 8; ++i) h.record(3.5);
  const obs::QuantileSummary s = h.quantiles();
  EXPECT_EQ(s.p50, 3.5);
  EXPECT_EQ(s.p99, 3.5);
  EXPECT_EQ(h.mean_us(), 3.5);
}

// --------------------------------------------------------------- spans

TEST(ObsSpanTest, NestingTracksDepthAndRecordsLifo) {
  TelemetryRegistry reg;
  EXPECT_FALSE(obs::current_context().valid());
  {
    Span outer(reg, "outer");
    EXPECT_EQ(obs::current_context(), outer.context());
    {
      Span inner(reg, "inner");
      EXPECT_EQ(obs::current_context(), inner.context());
    }
    EXPECT_EQ(obs::current_context(), outer.context());
  }
  EXPECT_FALSE(obs::current_context().valid());

  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // innermost ends first
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_span_id, 0u);
  EXPECT_GE(spans[1].dur_us, spans[0].dur_us);
}

TEST(ObsSpanTest, SimClockSpanUsesExplicitTimes) {
  TelemetryRegistry reg;
  {
    Span span(reg, "chunk", SimTime::millis(10), "exec");
    span.attr("k", JsonValue(1));
    span.end_at(SimTime::millis(35));
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].sim_clock);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 10000.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 25000.0);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "k");
}

TEST(ObsSpanTest, SimClockSpanWithoutEndAtRecordsZeroDuration) {
  TelemetryRegistry reg;
  { Span span(reg, "abandoned", SimTime::millis(5)); }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 0.0);
}

TEST(ObsSpanTest, EndIsIdempotent) {
  TelemetryRegistry reg;
  {
    Span span(reg, "once", SimTime::millis(1));
    span.end_at(SimTime::millis(4));
    span.end_at(SimTime::millis(9));  // ignored, as is the destructor's end
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 3000.0);
  EXPECT_FALSE(obs::current_context().valid());
}

TEST(ObsSpanTest, DisabledRegistryRecordsNothing) {
  TelemetryRegistry reg(/*enabled=*/false);
  {
    Span span(reg, "ghost");
    EXPECT_FALSE(span.active());
    // Disabled spans never join the stack.
    EXPECT_FALSE(obs::current_context().valid());
    span.attr("k", JsonValue(1));
  }
  EXPECT_EQ(reg.span_count(), 0u);
  // Counters stay live regardless: they are always-on metering.
  reg.counter("still_counts").add(2);
  EXPECT_EQ(reg.counter("still_counts").value(), 2u);
}

TEST(ObsSpanTest, EnabledIsSampledAtConstruction) {
  TelemetryRegistry reg(/*enabled=*/false);
  reg.set_enabled(true);
  {
    Span span(reg, "now_on");
    EXPECT_TRUE(span.active());
    reg.set_enabled(false);  // flipping mid-span must not lose the record
  }
  EXPECT_EQ(reg.span_count(), 1u);
}

TEST(ObsSpanTest, RecordCapacityDropsAndCounts) {
  TelemetryRegistry reg;
  reg.set_record_capacity(3);
  for (int i = 0; i < 5; ++i) {
    Span span(reg, "s");
  }
  EXPECT_EQ(reg.span_count(), 3u);
  EXPECT_EQ(reg.dropped_records(), 2u);
}

// -------------------------------------------------------- chrome trace

// ------------------------------------------------------- trace identity

TEST(ObsTraceContextTest, GeneratorIsDeterministicPerSeedAndStream) {
  obs::TraceIdGenerator a(/*seed=*/42, /*stream=*/0);
  obs::TraceIdGenerator b(/*seed=*/42, /*stream=*/0);
  obs::TraceIdGenerator other_stream(/*seed=*/42, /*stream=*/1);
  obs::TraceIdGenerator other_seed(/*seed=*/43, /*stream=*/0);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = a.next();
    EXPECT_NE(id, 0u) << "0 is reserved for 'no id'";
    EXPECT_EQ(id, b.next()) << "same seed+stream must replay identically";
    EXPECT_NE(id, other_stream.next());
    EXPECT_NE(id, other_seed.next());
    ids.push_back(id);
  }
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(),
            ids.size())
      << "ids must not collide within a stream";
  a.reset(42, 0);
  EXPECT_EQ(a.next(), ids[0]) << "reset replays the stream";
}

TEST(ObsTraceContextTest, SpansFormATraceTreeWithinAThread) {
  TelemetryRegistry reg;
  reg.set_trace_seed(7);
  {
    Span outer(reg, "outer");
    EXPECT_TRUE(outer.context().valid());
    {
      Span inner(reg, "inner");
      EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
      EXPECT_EQ(inner.context().parent_span_id, outer.context().span_id);
    }
  }
  {
    Span next(reg, "next");
    EXPECT_EQ(next.context().parent_span_id, 0u)
        << "a span opened outside any scope starts a fresh root";
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_NE(spans[2].trace_id, spans[1].trace_id)
      << "sibling roots get distinct trace ids";
}

TEST(ObsTraceContextTest, ContextScopeAdoptsARemoteParent) {
  // The cross-thread / cross-node adoption path: a context carried over a
  // queue or the MMPS wire is pushed with ContextScope, and the next span
  // parents under it instead of starting a new trace.
  TelemetryRegistry reg;
  reg.set_trace_seed(7, /*stream=*/3);
  obs::TraceContext carried;
  carried.trace_id = 0xabcdef01;
  carried.span_id = 0x1234;
  {
    obs::ContextScope scope(carried);
    Span child(reg, "adopted");
    EXPECT_EQ(child.context().trace_id, carried.trace_id);
    EXPECT_EQ(child.context().parent_span_id, carried.span_id);
  }
  EXPECT_FALSE(obs::current_context().valid())
      << "the scope must pop on destruction";
  {
    obs::ContextScope scope(obs::TraceContext{});  // invalid: no-op
    EXPECT_FALSE(obs::current_context().valid());
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xabcdef01u);
  EXPECT_EQ(spans[0].parent_span_id, 0x1234u);
}

TEST(ObsMetricsTest, DimensionedMetricsTextLabelsEveryRow) {
  TelemetryRegistry reg;
  reg.counter("requests").add(3);
  reg.latency("rtt").record(10.0);
  const std::string text = reg.metrics_text("node=2");
  EXPECT_NE(text.find("counter requests{node=2} 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt{node=2} "), std::string::npos);
  EXPECT_EQ(text.find("counter requests 3"), std::string::npos)
      << "every row carries the label";
  // The plain overload is unchanged (tier-1 tooling greps its format).
  EXPECT_NE(reg.metrics_text().find("counter requests 3"),
            std::string::npos);
}

TEST(ObsMetricsTest, MergedMetricsTextLabelsAndSortsAcrossRegistries) {
  TelemetryRegistry global;
  global.counter("requests").add(1);
  global.counter("mmps.sends").add(2);
  TelemetryRegistry service;
  service.counter("requests").add(3);
  service.latency("cold").record(10.0);
  const std::string text = obs::merged_metrics_text(
      {{&global, ""}, {&service, "registry=service"}});
  // One lexicographic order over both registries: a metric's rows group
  // together, and each row carries its registry's label (plain for "").
  EXPECT_EQ(text.substr(0, text.find("latency")),
            "counter mmps.sends 2\n"
            "counter requests 1\n"
            "counter requests{registry=service} 3\n");
  EXPECT_EQ(text.find("latency cold{registry=service} count 1 "),
            text.rfind('\n', text.size() - 2) + 1)
      << text;
}

TEST(ObsChromeTraceTest, RoundTripsThroughJsonParser) {
  TelemetryRegistry reg;
  {
    Span wall(reg, "wall_work", "app");
    wall.attr("n", JsonValue(42));
  }
  {
    Span sim(reg, "sim_work", SimTime::millis(1), "exec");
    sim.end_at(SimTime::millis(2));
  }
  obs::InstantRecord instant;
  instant.name = "fault";
  instant.category = "sim.event";
  instant.sim_clock = true;
  instant.ts_us = 1500.0;
  reg.record_instant(std::move(instant));

  const JsonValue parsed =
      JsonValue::parse(obs::chrome_trace_json(reg).dump(1));
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);

  int metadata = 0, complete = 0, instants = 0;
  bool saw_wall = false, saw_sim = false, saw_args = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "X") {
      ++complete;
      const std::string name = e.find("name")->as_string();
      // pid separates the clocks: 1 = wall, 2 = simulated.
      if (name == "wall_work") {
        saw_wall = true;
        EXPECT_EQ(e.find("pid")->as_int(), 1);
        saw_args = e.find("args") != nullptr;
      }
      if (name == "sim_work") {
        saw_sim = true;
        EXPECT_EQ(e.find("pid")->as_int(), 2);
        EXPECT_DOUBLE_EQ(e.find("ts")->as_double(), 1000.0);
        EXPECT_DOUBLE_EQ(e.find("dur")->as_double(), 1000.0);
      }
    }
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(metadata, 2);  // two process_name records
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_args);
}

TEST(ObsChromeTraceTest, SpanArgsCarryTraceIdsAsHexStrings) {
  // JSON doubles cannot hold a u64, so the exporter writes ids as
  // 16-hex-digit strings; 0 (untraced) omits the keys entirely to keep
  // pre-tracing traces byte-stable.
  TelemetryRegistry reg;
  reg.set_trace_seed(5);
  {
    Span outer(reg, "parent", SimTime::millis(1), "t");
    outer.end_at(SimTime::millis(2));
  }
  obs::SpanRecord untraced;
  untraced.name = "untraced";
  untraced.sim_clock = true;
  reg.record_span(untraced);

  EXPECT_EQ(obs::trace_id_hex(0x1f), "000000000000001f");
  const JsonValue parsed =
      JsonValue::parse(obs::chrome_trace_json(reg).dump(1));
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_traced = false, saw_untraced = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    if (e.find("ph")->as_string() != "X") continue;
    const JsonValue* args = e.find("args");
    if (e.find("name")->as_string() == "parent") {
      saw_traced = true;
      ASSERT_NE(args, nullptr);
      const JsonValue* trace_id = args->find("trace_id");
      ASSERT_NE(trace_id, nullptr);
      EXPECT_EQ(trace_id->as_string().size(), 16u);
      ASSERT_NE(args->find("span_id"), nullptr);
      EXPECT_EQ(args->find("parent_span_id"), nullptr)
          << "roots omit the parent key";
    } else {
      saw_untraced = true;
      EXPECT_TRUE(args == nullptr || args->find("trace_id") == nullptr);
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_untraced);
}

// ---------------------------------------------------------- sim bridge

TEST(ObsSimBridgeTest, MatchesSendDeliveredPairsIntoSpans) {
  sim::TraceLog log;
  sim::Tracer tracer = log.tracer();
  const ProcessorRef a{0, 0}, b{1, 0};
  tracer({sim::TraceEvent::Kind::SendInitiated, SimTime::millis(1), a, b,
          128});
  tracer({sim::TraceEvent::Kind::FragmentLost, SimTime::millis(2), a, b,
          128});
  tracer({sim::TraceEvent::Kind::Delivered, SimTime::millis(4), a, b, 128});

  TelemetryRegistry reg;
  obs::bridge_trace_log(log, reg, SimTime::millis(100));

  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "msg");
  EXPECT_TRUE(spans[0].sim_clock);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 101000.0);  // origin + 1ms
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 3000.0);
  ASSERT_EQ(reg.instants().size(), 1u);
  EXPECT_EQ(reg.instants()[0].name, "lost");
  EXPECT_EQ(reg.counter("sim.messages_delivered").value(), 1u);
  EXPECT_EQ(reg.counter("sim.bytes_delivered").value(), 128u);
  EXPECT_EQ(reg.counter("sim.fragments_lost").value(), 1u);
}

TEST(ObsSimBridgeTest, ToleratesOrphanDeliveriesFromBoundedLogs) {
  sim::TraceLog log(/*capacity=*/1);
  sim::Tracer tracer = log.tracer();
  const ProcessorRef a{0, 0}, b{1, 0};
  tracer({sim::TraceEvent::Kind::SendInitiated, SimTime::millis(1), a, b,
          64});
  tracer({sim::TraceEvent::Kind::Delivered, SimTime::millis(2), a, b, 64});
  EXPECT_EQ(log.dropped_events(), 1u);
  EXPECT_EQ(log.mean_latency(), SimTime::zero());  // orphan skipped

  TelemetryRegistry reg;
  obs::bridge_trace_log(log, reg);
  EXPECT_EQ(reg.span_count(), 0u);  // no matched pair survives the ring
  EXPECT_EQ(reg.counter("sim.trace_dropped_events").value(), 1u);
  EXPECT_EQ(reg.counter("obs.trace.dropped").value(), 1u)
      << "the loss rides the telemetry snapshot under its canonical name";
}

// ------------------------------------------------- deterministic export

TEST(ObsGoldenTest, IdenticalRunsExportByteIdenticalMetrics) {
  // Two identical seeded partitioner runs must meter identically: the
  // name-ordered snapshot-delta text is the golden artifact.  Uses the
  // global registry exactly as the instrumented library does.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CostModelDb db = calibrate(net, params).db;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10});

  TelemetryRegistry& global = TelemetryRegistry::global();
  const auto run_once = [&] {
    const obs::MetricsSnapshot before = global.snapshot();
    const CycleEstimator est(net, db, spec);
    (void)partition(est, snap);
    return obs::snapshot_delta(before, global.snapshot());
  };

  const obs::MetricsSnapshot first = run_once();
  const obs::MetricsSnapshot second = run_once();
  EXPECT_EQ(obs::snapshot_json(first).dump(),
            obs::snapshot_json(second).dump());
  EXPECT_EQ(first.counters.at("partitioner.calls"), 1u);
  EXPECT_GT(first.counters.at("partitioner.cost_model_evals"), 0u);
}

TEST(ObsGoldenTest, ExhaustiveMetersLikeTheHeuristic) {
  // exhaustive_partition must meter through the same counters partition()
  // does, so heuristic-vs-oracle trace comparisons line up, and its span
  // must carry the sweep parameters.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CostModelDb db = calibrate(net, params).db;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10});
  const CycleEstimator est(net, db, spec);

  TelemetryRegistry& global = TelemetryRegistry::global();
  const obs::MetricsSnapshot before = global.snapshot();
  const std::size_t spans_before = global.span_count();
  global.set_enabled(true);
  const PartitionResult result =
      exhaustive_partition(est, snap, {.threads = 2});
  global.set_enabled(false);
  const obs::MetricsSnapshot delta =
      obs::snapshot_delta(before, global.snapshot());

  EXPECT_EQ(delta.counters.at("partitioner.calls"), 1u);
  EXPECT_EQ(delta.counters.at("partitioner.cost_model_evals"),
            result.evaluations);
  EXPECT_EQ(delta.counters.at("estimator.evaluations"), result.evaluations);

  bool found_span = false;
  const auto spans = global.spans();
  for (std::size_t i = spans_before; i < spans.size(); ++i) {
    if (spans[i].name != "partition.exhaustive") continue;
    found_span = true;
    bool has_threads = false, has_evals = false;
    for (const auto& [key, value] : spans[i].attrs) {
      has_threads = has_threads || key == "threads";
      has_evals = has_evals || key == "evaluations";
    }
    EXPECT_TRUE(has_threads);
    EXPECT_TRUE(has_evals);
  }
  EXPECT_TRUE(found_span);
}

TEST(ObsGoldenTest, SearchesCountTheirWinnerAsOneEvaluation) {
  // Each search materialises its winner once and counts it as one
  // evaluation, on the result, on the estimator and on both counters, and
  // traces it as an estimator.estimate span with the Eq. 6 terms.  The
  // counts are pinned to what materialising through the reference
  // estimate() counted: building the winner from the fast path must not
  // change any search's evaluation tally.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CostModelDb db = calibrate(net, params).db;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10});

  struct Search {
    const char* name;
    std::function<PartitionResult(const CycleEstimator&)> run;
    std::uint64_t evaluations;       ///< result, estimator, estimator counter
    std::uint64_t cost_model_evals;  ///< partitioner.cost_model_evals
  };
  const std::vector<Search> searches = {
      {"partition",
       [&](const CycleEstimator& est) { return partition(est, snap); },
       9, 9},
      {"general_partition",
       [&](const CycleEstimator& est) {
         return general_partition(est, snap);
       },
       65, 9},  // the climb's 55 (72 before it stopped re-scoring the
                // 17 configurations it had just left), its heuristic
                // start's 9, the winner
      {"exhaustive_partition",
       [&](const CycleEstimator& est) {
         return exhaustive_partition(est, snap, {.threads = 2});
       },
       49, 49},  // 7 x 7 configurations, less the empty one, + 1
  };

  TelemetryRegistry& global = TelemetryRegistry::global();
  for (const Search& search : searches) {
    SCOPED_TRACE(search.name);
    const CycleEstimator est(net, db, spec);
    const obs::MetricsSnapshot before = global.snapshot();
    const std::size_t spans_before = global.span_count();
    global.set_enabled(true);
    const PartitionResult result = search.run(est);
    global.set_enabled(false);
    const obs::MetricsSnapshot delta =
        obs::snapshot_delta(before, global.snapshot());

    EXPECT_EQ(result.evaluations, search.evaluations);
    EXPECT_EQ(est.evaluations(), search.evaluations);
    EXPECT_EQ(delta.counters.at("estimator.evaluations"), search.evaluations);
    EXPECT_EQ(delta.counters.at("partitioner.cost_model_evals"),
              search.cost_model_evals);

    // The winner's span: the last estimator.estimate the search recorded.
    const auto spans = global.spans();
    const obs::SpanRecord* winner = nullptr;
    for (std::size_t i = spans_before; i < spans.size(); ++i) {
      if (spans[i].name == "estimator.estimate") winner = &spans[i];
    }
    ASSERT_NE(winner, nullptr);
    std::set<std::string> keys;
    for (const auto& [key, value] : winner->attrs) {
      keys.insert(key);
      if (key == "t_c_ms") {
        EXPECT_EQ(value.as_double(), result.estimate.t_c_ms);
      }
    }
    for (const char* key :
         {"processors", "t_comp_ms", "t_comm_ms", "t_overlap_ms", "t_c_ms"}) {
      EXPECT_EQ(keys.count(key), 1u) << key;
    }
  }
}

// ----------------------------------------------------------- threading

class ObsThreadedTest : public ::testing::Test {};

TEST_F(ObsThreadedTest, ConcurrentCountersSumExactly) {
  TelemetryRegistry reg;
  constexpr int kThreads = 8, kAdds = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      obs::Counter& c = reg.counter("shared");
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

// The striped histogram merges back to exactly what one unstriped
// histogram would hold: 8 threads (one stripe each) record a known
// multiset, and count, mean, min, max and every quantile equal a
// single-threaded reference exactly.
TEST_F(ObsThreadedTest, StripedHistogramMergesToSingleThreadedReference) {
  constexpr int kThreads = 8, kPerThread = 3000;
  const auto sample = [](int t, int i) {
    return static_cast<double>((t * 7919 + i * 104729) % 250000) / 1000.0;
  };
  obs::LatencyHistogram striped;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&striped, &sample, t] {
      for (int i = 0; i < kPerThread; ++i) striped.record(sample(t, i));
    });
  }
  for (std::thread& t : pool) t.join();

  obs::LatencyHistogram reference;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) reference.record(sample(t, i));
  }
  EXPECT_EQ(striped.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(striped.count(), reference.count());
  EXPECT_EQ(striped.mean_us(), reference.mean_us());
  EXPECT_EQ(striped.min_us(), reference.min_us());
  EXPECT_EQ(striped.max_us(), reference.max_us());
  const obs::QuantileSummary got = striped.quantiles();
  const obs::QuantileSummary want = reference.quantiles();
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
}

TEST_F(ObsThreadedTest, ConcurrentSpansAndMetricsAreSafe) {
  TelemetryRegistry reg;
  constexpr int kThreads = 8, kSpans = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, t] {
      for (int i = 0; i < kSpans; ++i) {
        Span span(reg, "work");
        span.attr("t", JsonValue(t));
        reg.latency("lat").record(1.0);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.span_count(),
            static_cast<std::size_t>(kThreads) * kSpans);
  // Every span carries the stable id of the thread that recorded it.
  for (const obs::SpanRecord& s : reg.spans()) {
    EXPECT_EQ(s.name, "work");
  }
  EXPECT_EQ(reg.latency("lat").count(),
            static_cast<std::size_t>(kThreads) * kSpans);
}

}  // namespace
}  // namespace netpart
