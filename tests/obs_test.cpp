// Tests for the unified telemetry layer (src/obs/): counters, snapshots,
// RAII spans on both clocks, the Chrome-trace exporter (round-tripped
// through the util/json parser), the sim TraceLog bridge, and the
// determinism of the text export.  ObsThreadedTest matches the tsan test
// preset's filter, so its concurrency cases also run under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/estimator.hpp"
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
  reg.latency("lat", 0.0, 100.0, 10).record(5.0);
  const obs::MetricsSnapshot before = reg.snapshot();
  reg.counter("moving").add(2);
  reg.counter("fresh").add(7);
  reg.latency("lat", 0.0, 100.0, 10).record(6.0);
  const obs::MetricsSnapshot delta =
      obs::snapshot_delta(before, reg.snapshot());

  EXPECT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters.at("moving"), 2u);
  EXPECT_EQ(delta.counters.at("fresh"), 7u);
  EXPECT_EQ(delta.counters.count("stable"), 0u);
  EXPECT_EQ(delta.latency_counts.at("lat"), 1u);
}

TEST(ObsMetricsTest, SnapshotTextIsNameOrdered) {
  obs::MetricsSnapshot snap;
  snap.counters["b"] = 2;
  snap.counters["a"] = 1;
  snap.latency_counts["z"] = 3;
  EXPECT_EQ(obs::snapshot_text(snap),
            "counter a 1\ncounter b 2\nlatency z count 3\n");
}

TEST(ObsMetricsTest, MetricsTextCoversCountersAndHistograms) {
  TelemetryRegistry reg;
  reg.counter("requests").add(3);
  reg.latency("rtt", 0.0, 1000.0, 100).record(10.0);
  const std::string text = reg.metrics_text();
  EXPECT_NE(text.find("counter requests 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt"), std::string::npos);
}

// --------------------------------------------------------------- spans

TEST(ObsSpanTest, NestingTracksDepthAndRecordsLifo) {
  TelemetryRegistry reg;
  EXPECT_EQ(Span::depth(), 0);
  {
    Span outer(reg, "outer");
    EXPECT_EQ(Span::depth(), 1);
    {
      Span inner(reg, "inner");
      EXPECT_EQ(Span::depth(), 2);
    }
    EXPECT_EQ(Span::depth(), 1);
  }
  EXPECT_EQ(Span::depth(), 0);

  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // innermost ends first
  EXPECT_EQ(spans[1].name, "outer");
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
  Span span(reg, "once");
  span.end();
  span.end();
  EXPECT_EQ(reg.span_count(), 1u);
  EXPECT_EQ(Span::depth(), 0);
}

TEST(ObsSpanTest, DisabledRegistryRecordsNothing) {
  TelemetryRegistry reg(/*enabled=*/false);
  {
    Span span(reg, "ghost");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(Span::depth(), 0);  // disabled spans never join the stack
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
  reg.latency("rtt", 0.0, 1000.0, 100).record(10.0);
  const std::string text = reg.metrics_text("node=2");
  EXPECT_NE(text.find("counter requests{node=2} 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt{node=2} "), std::string::npos);
  EXPECT_EQ(text.find("counter requests 3"), std::string::npos)
      << "every row carries the label";
  // The plain overload is unchanged (tier-1 tooling greps its format).
  EXPECT_NE(reg.metrics_text().find("counter requests 3"),
            std::string::npos);
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

TEST(ObsSimBridgeTest, LossBridgesExportSimAndTraceDrops) {
  sim::TraceLog log(/*capacity=*/1);
  sim::Tracer tracer = log.tracer();
  const ProcessorRef a{0, 0}, b{1, 0};
  tracer({sim::TraceEvent::Kind::SendInitiated, SimTime::millis(1), a, b, 8});
  tracer({sim::TraceEvent::Kind::Delivered, SimTime::millis(2), a, b, 8});
  tracer({sim::TraceEvent::Kind::Delivered, SimTime::millis(3), a, b, 8});
  ASSERT_EQ(log.dropped_events(), 2u);

  TelemetryRegistry reg;
  obs::bridge_trace_loss(log, reg);
  EXPECT_EQ(reg.counter("obs.trace.dropped").value(), 2u);

  const Network net = presets::paper_testbed();
  sim::Engine engine;
  sim::NetSim netsim(engine, net, sim::NetSimParams{}, Rng(1));
  obs::bridge_net_loss(netsim, reg);
  EXPECT_EQ(reg.counter("sim.messages_dropped").value(),
            netsim.messages_dropped());
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
    return obs::snapshot_text(obs::snapshot_delta(before, global.snapshot()));
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("counter partitioner.calls 1"), std::string::npos);
  EXPECT_NE(first.find("counter partitioner.cost_model_evals"),
            std::string::npos);
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
  const std::string delta =
      obs::snapshot_text(obs::snapshot_delta(before, global.snapshot()));

  EXPECT_NE(delta.find("counter partitioner.calls 1"), std::string::npos);
  EXPECT_NE(delta.find("counter partitioner.cost_model_evals " +
                       std::to_string(result.evaluations)),
            std::string::npos);
  EXPECT_NE(delta.find("counter estimator.evaluations " +
                       std::to_string(result.evaluations)),
            std::string::npos);

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
// multiset, and bucket-derived quantiles, count, min and max equal a
// single-threaded util::Histogram reference exactly.  Only the mean may
// differ, by floating-point reassociation across the stripe merge.
TEST_F(ObsThreadedTest, StripedHistogramMergesToSingleThreadedReference) {
  constexpr int kThreads = 8, kPerThread = 3000;
  const auto sample = [](int t, int i) {
    // 0..250 us over a 0..200 us range: the top fifth clamps.
    return static_cast<double>((t * 7919 + i * 104729) % 250000) / 1000.0;
  };
  obs::LatencyHistogram striped(0.0, 200.0, 400);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&striped, &sample, t] {
      for (int i = 0; i < kPerThread; ++i) striped.record(sample(t, i));
    });
  }
  for (std::thread& t : pool) t.join();

  Histogram reference(0.0, 200.0, 400);
  RunningStats reference_stats;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.add(sample(t, i));
      reference_stats.add(sample(t, i));
    }
  }
  EXPECT_EQ(striped.count(), reference.count());
  EXPECT_EQ(striped.min_us(), reference_stats.min());
  EXPECT_EQ(striped.max_us(), reference_stats.max());
  const QuantileSummary got = striped.quantiles();
  const QuantileSummary want = summarize_quantiles(reference);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p95, want.p95);
  EXPECT_EQ(got.p99, want.p99);
  EXPECT_NEAR(striped.mean_us(), reference_stats.mean(),
              1e-12 * reference_stats.mean());
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
        reg.latency("lat", 0.0, 100.0, 10).record(1.0);
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
  EXPECT_EQ(reg.latency("lat", 0.0, 100.0, 10).count(),
            static_cast<std::size_t>(kThreads) * kSpans);
}

}  // namespace
}  // namespace netpart
