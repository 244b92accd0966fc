// npracer tests (DESIGN.md §14): the vector-clock detector on synthetic
// logs, the recorder's event-ordering contract, the interleaving-
// exploration harness, the annotation-macro fixtures, and the quiet gates
// over the instrumented shipped surfaces.
//
// Layering of the tiers:
//   * Detector + recorder + harness tests run in EVERY build: they drive
//     the analysis machinery directly on synthetic event logs, so they
//     need no compiled-in annotations.
//   * The macro fixtures and the shipped-surface quiet gates need the
//     annotations compiled in (NETPART_RACE=ON, the `race` preset, run by
//     scripts/tier1.sh --race).  Elsewhere they GTEST_SKIP, keeping the
//     test names visible in every tier.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race/annotations.hpp"
#include "analysis/race/detector.hpp"
#include "analysis/race/harness.hpp"
#include "analysis/race/recorder.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "calib/model_io.hpp"
#include "core/partitioner.hpp"
#include "net/presets.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "svc/cache.hpp"
#include "svc/service.hpp"

namespace netpart {
namespace {

using analysis::Diagnostic;
using analysis::DiagnosticSink;
using analysis::Severity;
using analysis::race::DetectorOptions;
using analysis::race::Event;
using analysis::race::EventKind;
using analysis::race::ExploreOptions;
using analysis::race::ExploreResult;
using analysis::race::RaceRecorder;
using analysis::race::RecorderOptions;

// --- synthetic-log helpers ------------------------------------------------

/// Synthetic-log builder: thread ids, addresses and sites are script-level
/// fiction; only the detector's happens-before math is under test.
class Log {
 public:
  Log& add(EventKind kind, std::uint32_t thread, const void* addr,
           const char* name, int line, const void* aux = nullptr,
           const char* detail = nullptr) {
    Event event;
    event.kind = kind;
    event.thread = thread;
    event.addr = addr;
    event.aux = aux;
    event.name = name;
    event.detail = detail;
    event.file = "src/fake/surface.cpp";
    event.line = line;
    event.seq = static_cast<std::uint64_t>(events_.size());
    events_.push_back(event);
    return *this;
  }

  Log& read(std::uint32_t t, const void* a, const char* n, int line) {
    return add(EventKind::kRead, t, a, n, line);
  }
  Log& write(std::uint32_t t, const void* a, const char* n, int line) {
    return add(EventKind::kWrite, t, a, n, line);
  }
  Log& acquire(std::uint32_t t, const void* l, const char* n, int line) {
    return add(EventKind::kLockAcquire, t, l, n, line);
  }
  Log& release(std::uint32_t t, const void* l, const char* n, int line) {
    return add(EventKind::kLockRelease, t, l, n, line);
  }

  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

int count_code(const DiagnosticSink& sink, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

std::string first_message(const DiagnosticSink& sink,
                          const std::string& code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) return d.message;
  }
  return {};
}

// Distinct addresses for the synthetic logs (the values never matter).
int g_x, g_y, g_lock_a, g_lock_b, g_lock_c, g_flag, g_token;

// --- detector: happens-before --------------------------------------------

TEST(RaceDetectorTest, EmptyLogIsClean) {
  const DiagnosticSink sink = analysis::race::analyze({});
  EXPECT_TRUE(sink.clean());
  EXPECT_TRUE(sink.diagnostics().empty());
}

TEST(RaceDetectorTest, WriteWriteRaceFlagged) {
  Log log;
  log.write(0, &g_x, "x", 10).write(1, &g_x, "x", 20);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_FALSE(sink.clean());
  EXPECT_EQ(count_code(sink, "NP-R001"), 1);
  const std::string message = first_message(sink, "NP-R001");
  EXPECT_NE(message.find("write-write data race on `x`"), std::string::npos)
      << message;
  EXPECT_NE(message.find("src/fake/surface.cpp:10"), std::string::npos)
      << message;
  EXPECT_NE(message.find("src/fake/surface.cpp:20"), std::string::npos)
      << message;
}

TEST(RaceDetectorTest, ReadWriteRaceFlagged) {
  Log log;
  log.read(0, &g_x, "x", 10).write(1, &g_x, "x", 20);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R002"), 1);
  EXPECT_EQ(count_code(sink, "NP-R001"), 0);
  EXPECT_NE(first_message(sink, "NP-R002").find("read-write data race"),
            std::string::npos);
}

TEST(RaceDetectorTest, SameThreadAccessesNeverRace) {
  Log log;
  log.write(0, &g_x, "x", 10)
      .read(0, &g_x, "x", 11)
      .write(0, &g_x, "x", 12);
  EXPECT_TRUE(analysis::race::analyze(log.events()).clean());
}

TEST(RaceDetectorTest, CommonLockOrdersAccesses) {
  Log log;
  log.acquire(0, &g_lock_a, "m", 10)
      .write(0, &g_x, "x", 11)
      .release(0, &g_lock_a, "m", 12)
      .acquire(1, &g_lock_a, "m", 20)
      .write(1, &g_x, "x", 21)
      .read(1, &g_x, "x", 22)
      .release(1, &g_lock_a, "m", 23);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_TRUE(sink.clean()) << sink.render_text();
}

TEST(RaceDetectorTest, DifferentLocksDoNotOrder) {
  Log log;
  log.acquire(0, &g_lock_a, "a", 10)
      .write(0, &g_x, "x", 11)
      .release(0, &g_lock_a, "a", 12)
      .acquire(1, &g_lock_b, "b", 20)
      .write(1, &g_x, "x", 21)
      .release(1, &g_lock_b, "b", 22);
  EXPECT_EQ(count_code(analysis::race::analyze(log.events()), "NP-R001"), 1);
}

TEST(RaceDetectorTest, AtomicReleaseAcquireOrders) {
  Log log;
  log.write(0, &g_x, "x", 10)
      .add(EventKind::kAtomicRelease, 0, &g_flag, "flag", 11)
      .add(EventKind::kAtomicAcquire, 1, &g_flag, "flag", 20)
      .write(1, &g_x, "x", 21);
  EXPECT_TRUE(analysis::race::analyze(log.events()).clean());
}

TEST(RaceDetectorTest, AtomicRmwChainsOrder) {
  // RMW is both an acquire and a release: a chain of RMWs carries the
  // first thread's writes to the last.
  Log log;
  log.write(0, &g_x, "x", 10)
      .add(EventKind::kAtomicRmw, 0, &g_flag, "flag", 11)
      .add(EventKind::kAtomicRmw, 1, &g_flag, "flag", 20)
      .add(EventKind::kAtomicRmw, 2, &g_flag, "flag", 30)
      .write(2, &g_x, "x", 31);
  EXPECT_TRUE(analysis::race::analyze(log.events()).clean());
}

TEST(RaceDetectorTest, ForkStartEndJoinOrders) {
  Log log;
  log.write(0, &g_x, "x", 10)
      .add(EventKind::kThreadFork, 0, &g_token, "pool", 11)
      .add(EventKind::kThreadStart, 1, &g_token, "pool", 20)
      .write(1, &g_x, "x", 21)
      .add(EventKind::kThreadEnd, 1, &g_token, "pool", 22)
      .add(EventKind::kThreadJoin, 0, &g_token, "pool", 12)
      .read(0, &g_x, "x", 13);
  EXPECT_TRUE(analysis::race::analyze(log.events()).clean());
}

TEST(RaceDetectorTest, MissingJoinEdgeStillRaces) {
  // Fork orders parent-before-child, but without the end/join edge the
  // parent's post-"join" read is unordered against the child's write.
  Log log;
  log.add(EventKind::kThreadFork, 0, &g_token, "pool", 10)
      .add(EventKind::kThreadStart, 1, &g_token, "pool", 20)
      .write(1, &g_x, "x", 21)
      .read(0, &g_x, "x", 11);
  EXPECT_EQ(count_code(analysis::race::analyze(log.events()), "NP-R002"), 1);
}

// --- detector: lock-order graph ------------------------------------------

TEST(RaceDetectorTest, LockOrderCycleFlagged) {
  // AB on thread 0, BA on thread 1: classic inversion.  No deadlock
  // occurred in this log -- the cycle alone is the bug.
  Log log;
  log.acquire(0, &g_lock_a, "a", 10)
      .acquire(0, &g_lock_b, "b", 11)
      .release(0, &g_lock_b, "b", 12)
      .release(0, &g_lock_a, "a", 13)
      .acquire(1, &g_lock_b, "b", 20)
      .acquire(1, &g_lock_a, "a", 21)
      .release(1, &g_lock_a, "a", 22)
      .release(1, &g_lock_b, "b", 23);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R003"), 1);
  const std::string message = first_message(sink, "NP-R003");
  EXPECT_NE(message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(message.find("`a`"), std::string::npos);
  EXPECT_NE(message.find("`b`"), std::string::npos);
  // Both acquisition sites of the inversion must be named.
  EXPECT_NE(message.find("src/fake/surface.cpp:11"), std::string::npos)
      << message;
  EXPECT_NE(message.find("src/fake/surface.cpp:21"), std::string::npos)
      << message;
}

TEST(RaceDetectorTest, SingleThreadInversionStillFlagged) {
  // The graph is order-based, not thread-based: one thread taking AB then
  // BA at different times is the same latent deadlock.
  Log log;
  log.acquire(0, &g_lock_a, "a", 10)
      .acquire(0, &g_lock_b, "b", 11)
      .release(0, &g_lock_b, "b", 12)
      .release(0, &g_lock_a, "a", 13)
      .acquire(0, &g_lock_b, "b", 14)
      .acquire(0, &g_lock_a, "a", 15)
      .release(0, &g_lock_a, "a", 16)
      .release(0, &g_lock_b, "b", 17);
  EXPECT_EQ(count_code(analysis::race::analyze(log.events()), "NP-R003"), 1);
}

TEST(RaceDetectorTest, ConsistentLockOrderIsQuiet) {
  Log log;
  log.acquire(0, &g_lock_a, "a", 10)
      .acquire(0, &g_lock_b, "b", 11)
      .release(0, &g_lock_b, "b", 12)
      .release(0, &g_lock_a, "a", 13)
      .acquire(1, &g_lock_a, "a", 20)
      .acquire(1, &g_lock_b, "b", 21)
      .release(1, &g_lock_b, "b", 22)
      .release(1, &g_lock_a, "a", 23);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R003"), 0) << sink.render_text();
}

TEST(RaceDetectorTest, ThreeLockCycleReportedOnce) {
  // A->B->C->A across three threads: one component, one report, all
  // three names in it.
  Log log;
  log.acquire(0, &g_lock_a, "a", 10)
      .acquire(0, &g_lock_b, "b", 11)
      .release(0, &g_lock_b, "b", 12)
      .release(0, &g_lock_a, "a", 13)
      .acquire(1, &g_lock_b, "b", 20)
      .acquire(1, &g_lock_c, "c", 21)
      .release(1, &g_lock_c, "c", 22)
      .release(1, &g_lock_b, "b", 23)
      .acquire(2, &g_lock_c, "c", 30)
      .acquire(2, &g_lock_a, "a", 31)
      .release(2, &g_lock_a, "a", 32)
      .release(2, &g_lock_c, "c", 33);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R003"), 1);
  const std::string message = first_message(sink, "NP-R003");
  for (const char* name : {"`a`", "`b`", "`c`"}) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
}

// --- detector: guarded-by and lock discipline ----------------------------

TEST(RaceDetectorTest, GuardedByViolationFlagged) {
  Log log;
  log.add(EventKind::kGuardedBy, 0, &g_x, "x", 5, &g_lock_a)
      .acquire(0, &g_lock_a, "m", 10)
      .write(0, &g_x, "x", 11)
      .release(0, &g_lock_a, "m", 12)
      .write(0, &g_x, "x", 20);  // naked: violates the declaration
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R004"), 1);
  const std::string message = first_message(sink, "NP-R004");
  EXPECT_NE(message.find("NP_GUARDED_BY"), std::string::npos);
  EXPECT_NE(message.find("src/fake/surface.cpp:20"), std::string::npos);
}

TEST(RaceDetectorTest, GuardedAccessWithLockHeldIsQuiet) {
  Log log;
  log.add(EventKind::kGuardedBy, 0, &g_x, "x", 5, &g_lock_a)
      .acquire(1, &g_lock_a, "m", 10)
      .write(1, &g_x, "x", 11)
      .release(1, &g_lock_a, "m", 12);
  EXPECT_TRUE(analysis::race::analyze(log.events()).clean());
}

TEST(RaceDetectorTest, ReleaseWithoutAcquireFlagged) {
  Log log;
  log.release(0, &g_lock_a, "m", 10);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R005"), 1);
  EXPECT_NE(first_message(sink, "NP-R005").find("does not hold it"),
            std::string::npos);
}

TEST(RaceDetectorTest, ReacquireOfHeldLockFlagged) {
  Log log;
  log.acquire(0, &g_lock_a, "m", 10).acquire(0, &g_lock_a, "m", 11);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_EQ(count_code(sink, "NP-R005"), 1);
  EXPECT_NE(first_message(sink, "NP-R005").find("re-acquired"),
            std::string::npos);
}

// --- detector: benign races ----------------------------------------------

TEST(RaceDetectorTest, BenignRaceSuppressesReports) {
  Log log;
  log.add(EventKind::kBenignRace, 0, &g_x, "counter", 5, nullptr,
          "relaxed counter")
      .write(0, &g_x, "counter", 10)
      .write(1, &g_x, "counter", 20);
  const DiagnosticSink sink = analysis::race::analyze(log.events());
  EXPECT_TRUE(sink.clean()) << sink.render_text();
  EXPECT_EQ(count_code(sink, "NP-R001"), 0);
}

TEST(RaceDetectorTest, UnusedBenignNoteIsOptIn) {
  Log log;
  log.add(EventKind::kBenignRace, 0, &g_x, "counter", 5, nullptr,
          "relaxed counter")
      .write(0, &g_x, "counter", 10);  // only ever touched by one thread

  // Default: quiet -- an uncontended run is not evidence of staleness.
  EXPECT_TRUE(analysis::race::analyze(log.events()).diagnostics().empty());

  DetectorOptions options;
  options.report_unused_benign = true;
  const DiagnosticSink sink = analysis::race::analyze(log.events(), options);
  EXPECT_EQ(count_code(sink, "NP-R006"), 1);
  EXPECT_TRUE(sink.clean());  // a note, not an error
  EXPECT_NE(first_message(sink, "NP-R006").find("relaxed counter"),
            std::string::npos);
}

// --- detector: dedup, caps, determinism ----------------------------------

TEST(RaceDetectorTest, RepeatedRacePairReportedOnce) {
  Log log;
  for (int i = 0; i < 50; ++i) {
    log.write(0, &g_x, "x", 10).write(1, &g_x, "x", 20);
  }
  EXPECT_EQ(count_code(analysis::race::analyze(log.events()), "NP-R001"), 1);
}

TEST(RaceDetectorTest, MaxReportsCapsDistinctFindings) {
  Log log;
  // 32 distinct site pairs; only sites distinguish the fingerprints.
  for (int i = 0; i < 32; ++i) {
    log.write(0, &g_x, "x", 100 + 2 * i).write(1, &g_x, "x", 101 + 2 * i);
  }
  DetectorOptions options;
  options.max_reports = 5;
  const DiagnosticSink sink = analysis::race::analyze(log.events(), options);
  EXPECT_EQ(sink.diagnostics().size(), 5u);
}

TEST(RaceDetectorTest, AnalysisIsDeterministic) {
  Log log;
  log.add(EventKind::kGuardedBy, 0, &g_x, "x", 5, &g_lock_a)
      .write(0, &g_x, "x", 10)
      .write(1, &g_x, "x", 20)
      .read(2, &g_x, "x", 30)
      .acquire(0, &g_lock_a, "a", 40)
      .acquire(0, &g_lock_b, "b", 41)
      .release(0, &g_lock_b, "b", 42)
      .release(0, &g_lock_a, "a", 43)
      .acquire(1, &g_lock_b, "b", 50)
      .acquire(1, &g_lock_a, "a", 51)
      .release(1, &g_lock_a, "a", 52)
      .release(1, &g_lock_b, "b", 53);
  const std::string once = analysis::race::analyze(log.events()).render_text();
  const std::string twice =
      analysis::race::analyze(log.events()).render_text();
  EXPECT_EQ(once, twice);
  EXPECT_FALSE(once.empty());
}

// --- recorder -------------------------------------------------------------

TEST(RaceRecorderTest, StartStopLifecycle) {
  RaceRecorder& recorder = RaceRecorder::instance();
  EXPECT_FALSE(RaceRecorder::armed());
  recorder.start();
  EXPECT_TRUE(RaceRecorder::armed());
  recorder.on_event(EventKind::kWrite, &g_x, nullptr, "x", nullptr,
                    "t.cpp", 1);
  EXPECT_EQ(recorder.size(), 1u);
  const std::vector<Event> log = recorder.stop();
  EXPECT_FALSE(RaceRecorder::armed());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, EventKind::kWrite);
  EXPECT_STREQ(log[0].name, "x");
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(RaceRecorderTest, SequenceNumbersAreMonotonic) {
  RaceRecorder& recorder = RaceRecorder::instance();
  recorder.start();
  for (int i = 0; i < 16; ++i) {
    recorder.on_event(EventKind::kRead, &g_x, nullptr, "x", nullptr,
                      "t.cpp", i);
  }
  const std::vector<Event> log = recorder.stop();
  ASSERT_EQ(log.size(), 16u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_GT(log[i].seq, log[i - 1].seq);
  }
}

TEST(RaceRecorderTest, CapacityDropsAndCounts) {
  RaceRecorder& recorder = RaceRecorder::instance();
  RecorderOptions options;
  options.capacity = 4;
  recorder.start(options);
  for (int i = 0; i < 10; ++i) {
    recorder.on_event(EventKind::kRead, &g_x, nullptr, "x", nullptr,
                      "t.cpp", i);
  }
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_EQ(recorder.stop().size(), 4u);
}

TEST(RaceRecorderTest, SessionBumpsOnEveryStart) {
  RaceRecorder& recorder = RaceRecorder::instance();
  recorder.start();
  const std::uint64_t first = recorder.session();
  recorder.stop();
  recorder.start();
  EXPECT_GT(recorder.session(), first);
  recorder.stop();
}

TEST(RaceRecorderTest, LockScopePairsAcquireAndRelease) {
  RaceRecorder& recorder = RaceRecorder::instance();
  recorder.start();
  {
    analysis::race::LockScope scope(&g_lock_a, "m", "t.cpp", 1);
  }
  const std::vector<Event> log = recorder.stop();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, EventKind::kLockAcquire);
  EXPECT_EQ(log[1].kind, EventKind::kLockRelease);
  EXPECT_EQ(log[0].addr, log[1].addr);
}

TEST(RaceRecorderTest, LockScopeNeverFabricatesUnpairedRelease) {
  RaceRecorder& recorder = RaceRecorder::instance();
  recorder.start();
  {
    analysis::race::LockScope scope(&g_lock_a, "m", "t.cpp", 1);
    recorder.stop();
    recorder.start();  // new session begins mid-scope
  }
  // The acquire predates the current session, so the destructor must not
  // emit a release the new log has no acquire for.
  const std::vector<Event> log = recorder.stop();
  EXPECT_TRUE(log.empty());
}

TEST(RaceRecorderTest, ThreadsGetDistinctIds) {
  const std::uint32_t main_id = analysis::race::race_thread_id();
  std::uint32_t other_id = main_id;
  std::thread t([&] { other_id = analysis::race::race_thread_id(); });
  t.join();
  EXPECT_NE(main_id, other_id);
  // Stable within a thread.
  EXPECT_EQ(analysis::race::race_thread_id(), main_id);
}

TEST(RaceRecorderTest, EventsCarrySpanContext) {
  // np_obs registers the context probe at static init; an annotation that
  // fires inside an active span must carry that span's ids so race
  // reports can attribute both stacks.
  obs::TelemetryRegistry registry(/*enabled=*/true);
  RaceRecorder& recorder = RaceRecorder::instance();
  recorder.start();
  {
    obs::Span span(registry, "race.test", "test");
    recorder.on_event(EventKind::kWrite, &g_x, nullptr, "x", nullptr,
                      "t.cpp", 1);
  }
  recorder.on_event(EventKind::kWrite, &g_x, nullptr, "x", nullptr,
                    "t.cpp", 2);
  const std::vector<Event> all = recorder.stop();
  // In the instrumented build the registry's own annotations (e.g. the
  // span destructor's record_span lock scope) land in the log too; keep
  // only the two synthetic events this test emitted.
  std::vector<Event> log;
  for (const Event& e : all) {
    if (e.addr == static_cast<const void*>(&g_x)) log.push_back(e);
  }
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log[0].trace_id, 0u);
  EXPECT_NE(log[0].span_id, 0u);
  EXPECT_EQ(log[1].trace_id, 0u);  // no active span
}

// --- harness --------------------------------------------------------------

TEST(RaceHarnessTest, RunsEverySchedule) {
  ExploreOptions options;
  options.schedules = 5;
  std::vector<std::uint64_t> seeds;
  const ExploreResult result = analysis::race::explore(
      [&](std::uint64_t seed) { seeds.push_back(seed); }, options);
  EXPECT_EQ(result.schedules, 5);
  ASSERT_EQ(seeds.size(), 5u);
  EXPECT_EQ(std::set<std::uint64_t>(seeds.begin(), seeds.end()).size(), 5u)
      << "schedule seeds must be distinct";
}

TEST(RaceHarnessTest, FindingsDedupAcrossSchedules) {
  // The same racy site pair fires in every schedule; the merged result
  // must carry it exactly once.
  ExploreOptions options;
  options.schedules = 4;
  const ExploreResult result = analysis::race::explore(
      [](std::uint64_t) {
        RaceRecorder& recorder = RaceRecorder::instance();
        std::thread t([&] {
          recorder.on_event(EventKind::kWrite, &g_y, nullptr, "y", nullptr,
                            "t.cpp", 10);
        });
        t.join();
        recorder.on_event(EventKind::kWrite, &g_y, nullptr, "y", nullptr,
                          "t.cpp", 20);
      },
      options);
  EXPECT_EQ(count_code(result.sink, "NP-R001"), 1);
  EXPECT_GE(result.events, 8u);
}

TEST(RaceHarnessTest, QuietScenarioStaysQuiet) {
  ExploreOptions options;
  options.schedules = 3;
  const ExploreResult result = analysis::race::explore(
      [](std::uint64_t) {
        RaceRecorder& recorder = RaceRecorder::instance();
        recorder.on_event(EventKind::kThreadFork, &g_token, nullptr, "pool",
                          nullptr, "t.cpp", 1);
        std::thread t([&] {
          recorder.on_event(EventKind::kThreadStart, &g_token, nullptr,
                            "pool", nullptr, "t.cpp", 2);
          recorder.on_event(EventKind::kWrite, &g_y, nullptr, "y", nullptr,
                            "t.cpp", 3);
          recorder.on_event(EventKind::kThreadEnd, &g_token, nullptr, "pool",
                            nullptr, "t.cpp", 4);
        });
        t.join();
        recorder.on_event(EventKind::kThreadJoin, &g_token, nullptr, "pool",
                          nullptr, "t.cpp", 5);
        recorder.on_event(EventKind::kRead, &g_y, nullptr, "y", nullptr,
                          "t.cpp", 6);
      },
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
  EXPECT_EQ(result.schedules, 3);
}

// --- annotation-macro fixtures (need NETPART_RACE=ON) ---------------------

#if NP_RACE_ACTIVE
constexpr bool kMacrosActive = true;
#else
constexpr bool kMacrosActive = false;
#endif

#define NP_RACE_REQUIRE_ACTIVE()                                   \
  do {                                                             \
    if (!kMacrosActive) {                                          \
      GTEST_SKIP()                                                 \
          << "annotations compiled out; run via tier1.sh --race";  \
    }                                                              \
  } while (0)

TEST(RaceFixtureTest, UnsynchronisedWritesAreFlagged) {
  NP_RACE_REQUIRE_ACTIVE();
  // The underlying storage is a relaxed atomic so the *fixture* has no
  // real UB; the annotation layer still sees two unordered writes, which
  // is exactly the contract under test.
  std::atomic<int> cell{0};
  RaceRecorder::instance().start();
  std::thread t([&] {
    NP_WRITE(&cell, "fixture.cell");
    cell.store(1, std::memory_order_relaxed);
  });
  NP_WRITE(&cell, "fixture.cell");
  cell.store(2, std::memory_order_relaxed);
  t.join();
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_EQ(count_code(sink, "NP-R001"), 1) << sink.render_text();
}

TEST(RaceFixtureTest, LockScopeMacroOrdersWrites) {
  NP_RACE_REQUIRE_ACTIVE();
  std::mutex mutex;
  int shared = 0;
  RaceRecorder::instance().start();
  auto guarded_bump = [&] {
    std::lock_guard lock(mutex);
    NP_LOCK_SCOPE(&mutex, "fixture.mutex");
    NP_WRITE(&shared, "fixture.shared");
    ++shared;
  };
  std::thread t(guarded_bump);
  guarded_bump();
  t.join();
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_TRUE(sink.clean()) << sink.render_text();
  EXPECT_EQ(shared, 2);
}

TEST(RaceFixtureTest, LockOrderInversionFlaggedWithoutDeadlocking) {
  NP_RACE_REQUIRE_ACTIVE();
  // One thread takes AB then BA *sequentially* -- no deadlock can occur
  // in the run, but the recorded order graph has the cycle.
  std::mutex a, b;
  RaceRecorder::instance().start();
  {
    std::lock_guard la(a);
    NP_LOCK_SCOPE(&a, "fixture.lock_a");
    std::lock_guard lb(b);
    NP_LOCK_SCOPE(&b, "fixture.lock_b");
  }
  {
    std::lock_guard lb(b);
    NP_LOCK_SCOPE(&b, "fixture.lock_b");
    std::lock_guard la(a);
    NP_LOCK_SCOPE(&a, "fixture.lock_a");
  }
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_EQ(count_code(sink, "NP-R003"), 1) << sink.render_text();
}

TEST(RaceFixtureTest, GuardedByMacroCatchesNakedAccess) {
  NP_RACE_REQUIRE_ACTIVE();
  std::mutex mutex;
  int shared = 0;
  RaceRecorder::instance().start();
  NP_GUARDED_BY(&shared, &mutex, "fixture.shared");
  {
    std::lock_guard lock(mutex);
    NP_LOCK_SCOPE(&mutex, "fixture.mutex");
    NP_WRITE(&shared, "fixture.shared");
    shared = 1;
  }
  NP_READ(&shared, "fixture.shared");  // naked read: violation
  EXPECT_EQ(shared, 1);
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_EQ(count_code(sink, "NP-R004"), 1) << sink.render_text();
}

TEST(RaceFixtureTest, BenignRaceMacroSuppresses) {
  NP_RACE_REQUIRE_ACTIVE();
  std::atomic<int> counter{0};
  RaceRecorder::instance().start();
  NP_BENIGN_RACE(&counter, "fixture.counter",
                 "test double of a relaxed stats counter");
  std::thread t([&] {
    NP_WRITE(&counter, "fixture.counter");
    counter.fetch_add(1, std::memory_order_relaxed);
  });
  NP_WRITE(&counter, "fixture.counter");
  counter.fetch_add(1, std::memory_order_relaxed);
  t.join();
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_TRUE(sink.clean()) << sink.render_text();
}

TEST(RaceFixtureTest, AtomicHandoffMacrosCreateTheEdge) {
  NP_RACE_REQUIRE_ACTIVE();
  std::atomic<bool> ready{false};
  int payload = 0;
  RaceRecorder::instance().start();
  std::thread consumer([&] {
    while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
    NP_ATOMIC_ACQUIRE(&ready, "fixture.ready");
    NP_READ(&payload, "fixture.payload");
    EXPECT_EQ(payload, 42);
  });
  NP_WRITE(&payload, "fixture.payload");
  payload = 42;
  NP_ATOMIC_RELEASE(&ready, "fixture.ready");
  ready.store(true, std::memory_order_release);
  consumer.join();
  const DiagnosticSink sink =
      analysis::race::analyze(RaceRecorder::instance().stop());
  EXPECT_TRUE(sink.clean()) << sink.render_text();
}

// --- quiet gates over the instrumented shipped surfaces -------------------
//
// These are the hard zero-findings gates tier1.sh --race enforces: every
// explored schedule of each surface must analyze clean.  A finding here is
// either a real concurrency bug or a missing/wrong annotation -- both are
// ship blockers.

TEST(RaceQuietGateTest, DecisionCacheShards) {
  NP_RACE_REQUIRE_ACTIVE();
  ExploreOptions options;
  options.schedules = 6;
  const ExploreResult result = analysis::race::explore(
      [](std::uint64_t seed) {
        // Two entries per shard.  Every other probe draws one of 4 hot
        // keys (one per shard), the rest walk 64 cold keys, so inserts
        // overflow every shard -- second-chance passes move and evict --
        // while other threads hit and mark the hot entries.
        svc::DecisionCache cache(/*capacity=*/8, /*shards=*/4);
        constexpr int kThreads = 4;
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&cache, seed, t] {
            for (std::uint64_t i = 0; i < 40; ++i) {
              const std::uint64_t key = i % 2 == 0
                                            ? (seed + t + i / 2) % 4
                                            : 4 + (seed + i * 7 + t) % 64;
              const std::uint64_t epoch = 1 + i / 20;
              // Half the probes take the ready-reply path, which builds
              // the entry's future under the shard lock on first hit.
              const bool hit = (i + t) % 2 == 0
                                   ? cache.lookup_reply(key).valid()
                                   : cache.lookup(key) != nullptr;
              if (!hit) {
                auto decision = std::make_shared<svc::PartitionDecision>();
                decision->key = key;
                decision->epoch = epoch;
                cache.insert(std::move(decision));
              }
              if (i % 8 == 0) cache.stats();
              if (i == 20 + static_cast<std::uint64_t>(t)) {
                cache.invalidate_before(epoch);
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        cache.invalidate_before(2);
        EXPECT_GT(cache.stats().hits, 0u) << "no probe hit";
        for (const auto& shard : cache.shard_stats()) {
          EXPECT_GT(shard.stats.evictions, 0u) << "a shard never evicted";
        }
      },
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
  EXPECT_EQ(result.dropped, 0u);
}

TEST(RaceQuietGateTest, PartitionServiceWorkerPool) {
  NP_RACE_REQUIRE_ACTIVE();
  const Network net = presets::paper_testbed();
  const CostModelDb db(net.num_clusters());  // cold_override bypasses it
  ExploreOptions options;
  options.schedules = 4;
  const ExploreResult result = analysis::race::explore(
      [&](std::uint64_t seed) {
        AvailabilityFeed feed(net,
                              make_managers(net, AvailabilityPolicy{}));
        svc::ServiceOptions service_options;
        service_options.workers = 3;
        service_options.queue_capacity = 64;
        service_options.cold_override =
            [](const svc::PartitionRequest& request,
               const AvailabilitySnapshot&) {
              svc::PartitionDecision decision;
              decision.partition = PartitionVector({request.n});
              return decision;
            };
        svc::PartitionService service(net, db, feed, nullptr,
                                      service_options);
        // Availability flips while clients hit: the lock-free epoch read
        // on the hit path, the miss-path re-key and the invalidation
        // sweep all run under the detector.
        std::thread bumper([&feed] {
          const AvailabilitySnapshot base = feed.read().first;
          AvailabilitySnapshot revoked = base;
          revoked.available[0] -= 1;
          for (int b = 0; b < 6; ++b) {
            feed.update(b % 2 == 0 ? revoked : base);
            std::this_thread::yield();
          }
        });
        constexpr int kClients = 3;
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int c = 0; c < kClients; ++c) {
          clients.emplace_back([&service, seed, c] {
            for (int i = 0; i < 12; ++i) {
              svc::PartitionRequest request;
              request.spec = "stencil";
              request.n = 100 + static_cast<std::int64_t>(
                                    (seed + c * 5 + i) % 8);
              request.iterations = 10;
              const svc::ServiceReply reply = service.query(request);
              ASSERT_EQ(reply.status, svc::ServiceStatus::Ok)
                  << reply.error;
            }
          });
        }
        for (std::thread& t : clients) t.join();
        bumper.join();
        // Misses ran: the in-flight erase that rides on the next pop was
        // under the detector, not only hits.
        EXPECT_GT(service.metrics().counter("cold_computes").value(), 0u);
      },  // service joins its workers here; all events stay in-schedule
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
}

TEST(RaceQuietGateTest, ExhaustiveSweepWorkStealing) {
  NP_RACE_REQUIRE_ACTIVE();
  // Calibrate once; the sweep itself is what is under observation.
  struct Bed {
    Network net = presets::paper_testbed();
    CalibrationResult calib = calibrate(net, [] {
      CalibrationParams params;
      params.topologies = {Topology::OneD};
      return params;
    }());
  };
  static const Bed* bed = new Bed;
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 900, .iterations = 10});
  const CycleEstimator estimator(bed->net, bed->calib.db, spec);
  const AvailabilitySnapshot snapshot = gather_availability(
      bed->net, make_managers(bed->net, AvailabilityPolicy{}));
  ExploreOptions options;
  options.schedules = 4;
  const ExploreResult result = analysis::race::explore(
      [&](std::uint64_t seed) {
        ExhaustiveOptions sweep;
        sweep.threads = 4;
        sweep.chunk = 64;  // small chunks stress the steal protocol
        sweep.chaos_yield_seed = seed;
        exhaustive_partition(estimator, snapshot, sweep);
      },
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
}

TEST(RaceQuietGateTest, CalibrationSweepWorkers) {
  NP_RACE_REQUIRE_ACTIVE();
  // Four workers claim fig1's 15 sweeps and 3 router pairs off one
  // cursor; each writes only its task slot, which the caller merges after
  // the join.
  const Network net = presets::fig1_network();
  const std::string serial = save_cost_model(
      calibrate_with_workers(net, CalibrationParams{}, 1).db);
  ExploreOptions options;
  options.schedules = 4;
  const ExploreResult result = analysis::race::explore(
      [&](std::uint64_t) {
        const CalibrationResult pooled =
            calibrate_with_workers(net, CalibrationParams{}, 4);
        EXPECT_EQ(save_cost_model(pooled.db), serial);
      },
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
}

TEST(RaceQuietGateTest, TelemetryRegistry) {
  NP_RACE_REQUIRE_ACTIVE();
  ExploreOptions options;
  options.schedules = 4;
  const ExploreResult result = analysis::race::explore(
      [](std::uint64_t seed) {
        obs::TelemetryRegistry registry(/*enabled=*/true);
        constexpr int kThreads = 3;
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&registry, seed, t] {
            obs::Counter& counter = registry.counter("gate.counter");
            obs::LatencyHistogram& latency = registry.latency("gate.latency");
            for (int i = 0; i < 25; ++i) {
              counter.add(1);
              latency.record(static_cast<double>((seed + i + t) % 90));
              registry.record_span(obs::SpanRecord{});
              if (i % 10 == 0) {
                registry.snapshot();
                registry.span_count();
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();
        registry.metrics_text();
        registry.spans();
      },
      options);
  EXPECT_TRUE(result.sink.clean()) << result.sink.render_text();
}

}  // namespace
}  // namespace netpart
