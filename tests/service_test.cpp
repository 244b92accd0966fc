// Partition-service concurrency tests (DESIGN.md §8).
//
// The service's promises are concurrency promises, so the tests are
// thread-shaped: N clients hammer mixed hot/cold request streams and the
// assertions are about what must NOT multiply (cold computes per unique
// key), what must NOT survive (decisions across an epoch bump), and what
// must NOT block (admission when the queue is full, shutdown with a full
// queue).  The chaos-seeded cases reuse the deterministic fault machinery
// from sim/faults.hpp: each seed yields one reproducible schedule of
// cold-path faults and availability churn.
//
// This file is part of the TSan tier (scripts/tier1.sh --tsan): every test
// here must stay free of reported races.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "net/presets.hpp"
#include "sim/faults.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

ComputationSpec resolve_stencil(const svc::PartitionRequest& request) {
  return apps::make_stencil_spec(apps::StencilConfig{
      .n = static_cast<int>(request.n), .iterations = request.iterations});
}

svc::PartitionRequest stencil_request(std::int64_t n) {
  svc::PartitionRequest request;
  request.spec = "stencil";
  request.n = n;
  request.iterations = 10;
  return request;
}

/// Calibrated paper testbed shared by every test (calibration is the slow
/// part; the tests only need *a* valid cost model).
struct Testbed {
  Network net = presets::paper_testbed();
  CostModelDb db;
  Testbed() : db(net.num_clusters()) {
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    db = calibrate(net, params).db;
  }
};

const Testbed& testbed() {
  static const Testbed kBed;
  return kBed;
}

AvailabilityFeed make_feed(const Network& net) {
  return AvailabilityFeed(net,
                          make_managers(net, AvailabilityPolicy{}));
}

/// Thread-safe per-key invocation counter for cold_override hooks.
class ColdCounter {
 public:
  void bump(std::int64_t n) {
    std::lock_guard lock(mutex_);
    ++counts_[n];
  }
  std::map<std::int64_t, int> snapshot() const {
    std::lock_guard lock(mutex_);
    return counts_;
  }
  int total() const {
    std::lock_guard lock(mutex_);
    int sum = 0;
    for (const auto& [n, c] : counts_) sum += c;
    return sum;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::int64_t, int> counts_;
};

TEST(ServiceTest, ColdThenHitReturnsSameDecision) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);

  const svc::ServiceReply cold = service.query(stencil_request(600));
  ASSERT_EQ(cold.status, svc::ServiceStatus::Ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_NE(cold.decision, nullptr);
  EXPECT_EQ(cold.decision->partition.total(), 600);
  EXPECT_EQ(cold.decision->epoch, feed.epoch());

  const svc::ServiceReply hit = service.query(stencil_request(600));
  ASSERT_EQ(hit.status, svc::ServiceStatus::Ok);
  EXPECT_TRUE(hit.cache_hit);
  // Literally the same decision object, not a recomputation.
  EXPECT_EQ(hit.decision.get(), cold.decision.get());
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

// The hit histogram has no range for a tail to fall off.  Its fixed-width
// predecessor spanned 0..200 us, so slow hits at 500 us read as 200 us.
TEST(ServiceTest, HitTailAboveTheOldFixedRangeIsReported) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);
  ASSERT_EQ(service.query(stencil_request(600)).status,
            svc::ServiceStatus::Ok);
  ASSERT_TRUE(service.query(stencil_request(600)).cache_hit);

  obs::LatencyHistogram& hits = service.metrics().latency("hit");
  ASSERT_EQ(hits.count(), 1u);  // the hit above, found by name alone
  for (int i = 0; i < 99; ++i) hits.record(500.0);
  EXPECT_EQ(hits.count(), 100u);
  EXPECT_NEAR(hits.quantiles().p99, 500.0, 500.0 / 32.0);
  EXPECT_EQ(hits.max_us(), 500.0);
}

// (1) Coalescing: clients * rounds requests over a tiny key universe, with
// a deliberately slow cold path to widen the in-flight window.  Every
// request must succeed and each unique key must be computed exactly once.
TEST(ServiceTest, StressColdComputedOncePerKey) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  ColdCounter colds;
  svc::ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 1024;
  options.cold_override = [&colds](const svc::PartitionRequest& request,
                                   const AvailabilitySnapshot&) {
    colds.bump(request.n);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  constexpr int kClients = 8;
  constexpr int kRounds = 40;
  constexpr int kUniverse = 5;
  std::atomic<int> ok{0}, other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const std::int64_t n = 100 + (c + r) % kUniverse;
        const svc::ServiceReply reply = service.query(stencil_request(n));
        (reply.status == svc::ServiceStatus::Ok ? ok : other)++;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok.load(), kClients * kRounds);
  EXPECT_EQ(other.load(), 0);
  const auto counts = colds.snapshot();
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(kUniverse));
  for (const auto& [n, count] : counts) {
    EXPECT_EQ(count, 1) << "key n=" << n << " computed " << count
                        << " times despite coalescing";
  }
  // Every request is one hit, one coalesce or one of the kUniverse cold
  // computes.  Hits are the service's count: a request can miss the
  // lock-free lookup and then hit admission's double-checked peek (the
  // worker finished its key in between), which the cache's own stats leave
  // out.
  EXPECT_EQ(service.metrics().counter("cache_hits").value() +
                service.metrics().counter("coalesced").value() +
                static_cast<std::uint64_t>(kUniverse),
            static_cast<std::uint64_t>(kClients * kRounds));
}

// (2) Epoch bump: a cached decision must not survive an availability
// change -- the next query recomputes under the new epoch and the stale
// entry is reclaimed.
TEST(ServiceTest, EpochBumpInvalidatesCachedDecisions) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);

  const svc::ServiceReply first = service.query(stencil_request(300));
  ASSERT_EQ(first.status, svc::ServiceStatus::Ok) << first.error;
  const std::uint64_t epoch_before = feed.epoch();

  // Revoke one processor: counts change, epoch must bump.
  AvailabilitySnapshot next = feed.read().first;
  ASSERT_GT(next.available[0], 1);
  next.available[0] -= 1;
  const std::uint64_t epoch_after = feed.update(std::move(next));
  ASSERT_GT(epoch_after, epoch_before);

  const svc::ServiceReply second = service.query(stencil_request(300));
  ASSERT_EQ(second.status, svc::ServiceStatus::Ok) << second.error;
  EXPECT_FALSE(second.cache_hit) << "stale decision served after bump";
  EXPECT_EQ(second.decision->epoch, epoch_after);
  EXPECT_NE(second.decision.get(), first.decision.get());
  EXPECT_GE(service.cache().stats().invalidated, 1u);
  EXPECT_GE(service.metrics().counter("epoch_bumps").value(), 1u);

  // An identical re-gather must NOT bump: the cache stays warm.
  feed.update(feed.read().first);
  const svc::ServiceReply third = service.query(stencil_request(300));
  EXPECT_TRUE(third.cache_hit);
}

// (3) Overload: a tiny queue behind a deliberately slow single worker.
// Excess load must shed with Overloaded immediately -- not block, not
// deadlock -- and the service must still drain and destruct cleanly.
TEST(ServiceTest, OverloadShedsInsteadOfBlocking) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  svc::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  options.cold_override = [](const svc::PartitionRequest& request,
                             const AvailabilitySnapshot&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  // Submit far more distinct cold keys than the queue admits, from many
  // threads at once.  submit() never blocks, so the whole burst returns
  // quickly even though the worker needs ~5ms per admitted job.
  constexpr int kClients = 8;
  constexpr int kPerClient = 10;
  std::mutex mutex;
  std::vector<std::shared_future<svc::ServiceReply>> futures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        auto f = service.submit(
            stencil_request(1000 + c * kPerClient + r));
        std::lock_guard lock(mutex);
        futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int ok = 0, shed = 0, failed = 0;
  for (auto& f : futures) {
    const svc::ServiceReply reply = f.get();  // must all resolve
    switch (reply.status) {
      case svc::ServiceStatus::Ok: ++ok; break;
      case svc::ServiceStatus::Overloaded: ++shed; break;
      case svc::ServiceStatus::Failed: ++failed; break;
    }
  }
  EXPECT_EQ(ok + shed + failed, kClients * kPerClient);
  EXPECT_EQ(failed, 0);
  EXPECT_GT(shed, 0) << "queue of 2 absorbed an 80-request burst";
  EXPECT_GT(ok, 0) << "admission shed everything";
  EXPECT_EQ(service.metrics().counter("shed_overload").value(),
            static_cast<std::uint64_t>(shed));
  // Destructor drains the remaining queue without deadlock (implicitly
  // verified by leaving scope; a hang here fails the test by timeout).
}

// The in-flight table is sized once, at construction.  Two workers block
// on a gate while sixteen clients submit distinct keys, so the 4-deep queue
// and both workers fill and the rest shed; then the gate opens and every
// client retries its key until Ok.  An admission that found the table full
// would throw out of submit(): every reply must be Ok or Overloaded, and
// each key computes once.
TEST(ServiceTest, InflightTableHoldsEveryJobAtItsBound) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  ColdCounter colds;
  std::promise<void> opener;
  const std::shared_future<void> gate = opener.get_future().share();
  svc::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 4;
  options.cold_override = [&colds, gate](const svc::PartitionRequest& request,
                                         const AvailabilitySnapshot&) {
    colds.bump(request.n);
    gate.wait();
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  constexpr int kClients = 16;
  constexpr int kRounds = 3;  // after the burst: one compute, then hits
  std::atomic<int> ok{0}, overloaded{0}, failed{0}, threw{0};
  const auto tally = [&](const svc::ServiceReply& reply) {
    switch (reply.status) {
      case svc::ServiceStatus::Ok: ++ok; break;
      case svc::ServiceStatus::Overloaded: ++overloaded; break;
      case svc::ServiceStatus::Failed: ++failed; break;
    }
    return reply.status;
  };
  const auto run_clients = [&](const std::function<void(int)>& client) {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&client, &threw, c] {
        try {
          client(c);
        } catch (const std::exception&) {
          ++threw;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  // The burst: at most 2 running and 4 queued are admitted.
  std::vector<std::shared_future<svc::ServiceReply>> burst(kClients);
  run_clients([&](int c) {
    burst[static_cast<std::size_t>(c)] =
        service.submit(stencil_request(1000 + c));
  });
  opener.set_value();
  int admitted = 0;
  for (const auto& reply : burst) {
    if (tally(reply.get()) == svc::ServiceStatus::Ok) ++admitted;
  }
  EXPECT_GE(admitted, 1);
  EXPECT_LE(admitted, 6);

  run_clients([&](int c) {
    for (int r = 0; r < kRounds; ++r) {
      while (tally(service.query(stencil_request(1000 + c))) ==
             svc::ServiceStatus::Overloaded) {
        std::this_thread::yield();
      }
    }
  });

  EXPECT_EQ(threw.load(), 0) << "an admission overflowed the table";
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(ok.load(), admitted + kClients * kRounds);
  EXPECT_GE(overloaded.load(), kClients - admitted);
  EXPECT_EQ(service.metrics().counter("shed_overload").value(),
            static_cast<std::uint64_t>(overloaded.load()));
  const auto counts = colds.snapshot();
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(kClients));
  for (const auto& [n, count] : counts) {
    EXPECT_EQ(count, 1) << "key n=" << n << " computed " << count
                        << " times";
  }
}

// The cache's and the in-flight table's storage is sized at construction,
// so a size it cannot hold fails there with InvalidArgument.  A queue
// capacity of SIZE_MAX (netpartd's `queue=-1`) would wrap the in-flight
// bound to a few entries and overflow it at the first burst; a cache
// capacity of SIZE_MAX wrapped its per-shard share to 0, and the first
// insert read an empty shard.
TEST(ServiceTest, SizesBeyondTheFlatTablesFailAtConstruction) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::ServiceOptions queue_options;
  queue_options.queue_capacity = SIZE_MAX;
  EXPECT_THROW(
      {
        svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                      queue_options);
      },
      InvalidArgument);
  svc::ServiceOptions cache_options;
  cache_options.cache_capacity = SIZE_MAX;
  EXPECT_THROW(
      {
        svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                      cache_options);
      },
      InvalidArgument);
  EXPECT_THROW(svc::DecisionCache(SIZE_MAX, 1), InvalidArgument);
}

// Chaos tier: seeded fault injection on the cold partition path plus
// availability churn from the same plan.  Faults surface as Failed replies
// (shared by every coalesced waiter), are never cached, and the service
// keeps answering across epochs.
TEST(ServiceTest, ChaosSeedsFaultyColdPathStaysConsistent) {
  const Testbed& bed = testbed();

  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::ChaosRng chaos(seed);
    sim::ChaosOptions chaos_options;
    chaos_options.crashes = 1;
    chaos_options.revocations = 2;
    chaos_options.control_horizon = SimTime::seconds(1);
    const sim::FaultPlan plan = chaos.make_plan(bed.net, chaos_options);
    const std::vector<ChurnEvent> churn = plan.churn_events();

    AvailabilityFeed feed = make_feed(bed.net);
    const AvailabilitySnapshot base = feed.read().first;

    // The fault schedule for the cold path itself: every 7th cold compute
    // throws (seed-rotated so different seeds fault different keys).
    std::atomic<std::uint64_t> cold_calls{0};
    ColdCounter colds;
    svc::ServiceOptions options;
    options.workers = 2;
    options.queue_capacity = 256;
    options.cold_override =
        [&](const svc::PartitionRequest& request,
            const AvailabilitySnapshot& snapshot) {
      colds.bump(request.n);
      const std::uint64_t call =
          cold_calls.fetch_add(1, std::memory_order_relaxed);
      if ((call + seed) % 7 == 0) {
        throw Error("injected cold-path fault");
      }
      // Respect the churned availability like the real path would.
      std::int64_t procs = 0;
      for (int a : snapshot.available) procs += a;
      if (procs <= 0) throw Error("no processors available");
      svc::PartitionDecision decision;
      decision.partition = PartitionVector({request.n});
      return decision;
    };
    svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                  options);

    std::atomic<int> ok{0}, failed{0}, overloaded{0};
    constexpr int kClients = 6;
    constexpr int kRounds = 30;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRounds; ++r) {
          // Mid-stream, one client replays the plan's churn into the feed
          // (epoch bumps race with in-flight requests by design).
          if (c == 0 && r == kRounds / 2 && !churn.empty()) {
            feed.update(apply_churn(bed.net, base, churn, SimTime::max()));
          }
          const std::int64_t n = 200 + (c * kRounds + r) % 6;
          const svc::ServiceReply reply = service.query(stencil_request(n));
          switch (reply.status) {
            case svc::ServiceStatus::Ok:
              ++ok;
              break;
            case svc::ServiceStatus::Failed:
              ++failed;
              EXPECT_FALSE(reply.error.empty());
              break;
            case svc::ServiceStatus::Overloaded:
              ++overloaded;
              break;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(ok + failed + overloaded, kClients * kRounds)
        << "seed " << seed;
    EXPECT_GT(ok.load(), 0) << "seed " << seed;
    // Failures are not cached: with faults on the path, cold computes may
    // exceed the unique-key count, but every extra compute is explained by
    // a cold-path failure, an epoch bump (new keys), or a stale-epoch
    // straggler -- a client that read the feed just before a bump may
    // submit an old-epoch key after invalidation reclaimed its entry, and
    // each client can straggle at most once per bump.
    const std::uint64_t bumps =
        service.metrics().counter("epoch_bumps").value();
    const std::uint64_t cold_failures =
        service.metrics().counter("failed").value();
    EXPECT_LE(colds.total(),
              6 * static_cast<int>(1 + bumps) +
                  static_cast<int>(cold_failures) +
                  kClients * static_cast<int>(bumps))
        << "seed " << seed;
    // One failed cold compute fans out to every coalesced waiter, so the
    // counter bounds the Failed replies from below.
    EXPECT_LE(cold_failures, static_cast<std::uint64_t>(failed.load()))
        << "seed " << seed;
    if (failed.load() > 0) {
      EXPECT_GT(cold_failures, 0u) << "seed " << seed;
    }
  }
}

// A fault is transient: after it clears, the same key must recompute
// successfully (failures were not cached) and then hit.
TEST(ServiceTest, FailedDecisionsAreNotCached) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  std::atomic<bool> faulty{true};
  svc::ServiceOptions options;
  options.cold_override = [&faulty](const svc::PartitionRequest& request,
                                    const AvailabilitySnapshot&) {
    if (faulty.load()) throw Error("injected fault");
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  const svc::ServiceReply broken = service.query(stencil_request(42));
  EXPECT_EQ(broken.status, svc::ServiceStatus::Failed);
  EXPECT_NE(broken.error.find("injected fault"), std::string::npos);
  EXPECT_EQ(service.cache().size(), 0u);

  faulty.store(false);
  const svc::ServiceReply healed = service.query(stencil_request(42));
  ASSERT_EQ(healed.status, svc::ServiceStatus::Ok) << healed.error;
  EXPECT_FALSE(healed.cache_hit);
  EXPECT_TRUE(service.query(stencil_request(42)).cache_hit);
}

// The retry half of the contract, many times over: every failed reply's
// in-flight entry is erased before the reply is set, so a retry sent the
// moment the failure arrives recomputes instead of coalescing onto the
// failed future.  (A successful reply's erase is deferred to the worker's
// next pop; a failure's must not be.)
TEST(ServiceTest, FailedRepliesNeverCoalesceTheirRetry) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);

  ColdCounter colds;
  svc::ServiceOptions options;
  options.workers = 2;
  // The first compute of every key fails; the retry succeeds.
  options.cold_override = [&colds](const svc::PartitionRequest& request,
                                   const AvailabilitySnapshot&) {
    colds.bump(request.n);
    if (colds.snapshot().at(request.n) == 1) throw Error("injected fault");
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);
  constexpr int kKeys = 200;
  for (int k = 0; k < kKeys; ++k) {
    const std::int64_t n = 1000 + k;
    ASSERT_EQ(service.query(stencil_request(n)).status,
              svc::ServiceStatus::Failed);
    const svc::ServiceReply retry = service.query(stencil_request(n));
    ASSERT_EQ(retry.status, svc::ServiceStatus::Ok) << "key " << n;
    EXPECT_FALSE(retry.cache_hit);
  }
  EXPECT_EQ(colds.total(), 2 * kKeys);
  EXPECT_EQ(service.metrics().counter("coalesced").value(), 0u);
}

/// cold_override that answers at once, except for key `blocker`, which
/// holds the worker until release() -- so a test can freeze the service
/// with a worker busy right after its previous reply.
class BlockingColdPath {
 public:
  explicit BlockingColdPath(std::int64_t blocker) : blocker_(blocker) {}

  svc::ColdPathOverride hook() {
    return [this](const svc::PartitionRequest& request,
                  const AvailabilitySnapshot&) {
      colds_.bump(request.n);
      if (request.n == blocker_) {
        entered_.set_value();
        release_future_.wait();
      }
      svc::PartitionDecision decision;
      decision.partition = PartitionVector({request.n});
      return decision;
    };
  }
  void wait_entered() { entered_future_.wait(); }
  void release() { release_.set_value(); }
  int computes(std::int64_t n) const {
    const auto counts = colds_.snapshot();
    const auto it = counts.find(n);
    return it == counts.end() ? 0 : it->second;
  }

 private:
  std::int64_t blocker_;
  ColdCounter colds_;
  std::promise<void> entered_;
  std::shared_future<void> entered_future_ = entered_.get_future().share();
  std::promise<void> release_;
  std::shared_future<void> release_future_ = release_.get_future().share();
};

// A successful job's in-flight entry outlives its reply until the worker's
// next pop.  A request that reaches the entry in that window -- here with
// the worker idle after the reply and the cache entry dropped, so the
// lookup misses -- is answered with the job's own ready reply: the same
// decision, counted as coalesced, and no second compute.
TEST(ServiceTest, RequestInTheDeferredEraseWindowGetsTheAnsweredDecision) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  ColdCounter colds;
  svc::ServiceOptions options;
  options.workers = 1;
  options.cold_override = [&colds](const svc::PartitionRequest& request,
                                   const AvailabilitySnapshot&) {
    colds.bump(request.n);
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  const svc::ServiceReply answered = service.query(stencil_request(600));
  ASSERT_EQ(answered.status, svc::ServiceStatus::Ok) << answered.error;
  EXPECT_EQ(service.cache().invalidate_before(feed.epoch() + 1), 1u);

  const svc::ServiceReply again = service.query(stencil_request(600));
  ASSERT_EQ(again.status, svc::ServiceStatus::Ok) << again.error;
  EXPECT_EQ(again.decision.get(), answered.decision.get());
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(service.metrics().counter("coalesced").value(), 1u);
  EXPECT_EQ(colds.total(), 1);
}

// The worker blocked right after a reply: job A answers, then the same
// worker pops job B, whose cold path blocks.  A request for A sent in
// that window gets A's decision as a cache hit.  The pop of B erased A's
// entry, so once the cache has dropped A a request recomputes it (it
// neither coalesces onto the answered job nor is lost).
TEST(ServiceTest, NextPopErasesTheAnsweredJobsEntry) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  constexpr std::int64_t kBlocker = 999;
  BlockingColdPath cold(kBlocker);
  svc::ServiceOptions options;
  options.workers = 1;
  options.cold_override = cold.hook();
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);

  // One worker serves in queue order, so once B has started, A has been
  // answered and B's pop has run.
  const auto a_reply = service.submit(stencil_request(600));
  const auto b_reply = service.submit(stencil_request(kBlocker));
  cold.wait_entered();
  // EXPECT, not ASSERT, until release(): returning early would leave the
  // worker blocked and the service's destructor waiting on it.
  EXPECT_EQ(a_reply.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(a_reply.get().status, svc::ServiceStatus::Ok);

  const svc::ServiceReply in_window = service.query(stencil_request(600));
  EXPECT_EQ(in_window.status, svc::ServiceStatus::Ok) << in_window.error;
  EXPECT_TRUE(in_window.cache_hit);
  EXPECT_EQ(in_window.decision.get(), a_reply.get().decision.get());
  EXPECT_EQ(cold.computes(600), 1);

  service.cache().invalidate_before(feed.epoch() + 1);
  const auto recompute = service.submit(stencil_request(600));
  EXPECT_EQ(recompute.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  cold.release();
  ASSERT_EQ(recompute.get().status, svc::ServiceStatus::Ok);
  EXPECT_FALSE(recompute.get().cache_hit);
  EXPECT_NE(recompute.get().decision.get(), a_reply.get().decision.get());
  EXPECT_EQ(cold.computes(600), 2);
  EXPECT_EQ(b_reply.get().status, svc::ServiceStatus::Ok);
}

// A hit keys on the feed's lock-free epoch alone; only a miss reads the
// snapshot, and it re-keys when the epoch moved in between.  Four clients
// hit a warm universe while a fifth thread flips availability back and
// forth.  The cold path stamps each decision with the snapshot it was
// handed, so every Ok reply must carry the snapshot the feed held at the
// decision's epoch -- a decision filed under one epoch's key but computed
// from another epoch's snapshot breaks this.
TEST(ServiceTest, RepliesCarryTheSnapshotOfTheirEpochUnderEpochChurn) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  const AvailabilitySnapshot base = feed.read().first;
  AvailabilitySnapshot revoked = base;
  ASSERT_GT(revoked.available[0], 1);
  revoked.available[0] -= 1;

  svc::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 1024;
  options.cold_override = [](const svc::PartitionRequest& request,
                             const AvailabilitySnapshot& snapshot) {
    svc::PartitionDecision decision;
    decision.partition = PartitionVector({request.n});
    decision.config = snapshot.available;  // the stamp
    return decision;
  };
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil,
                                options);
  constexpr int kUniverse = 16;
  for (int k = 0; k < kUniverse; ++k) {
    ASSERT_EQ(service.query(stencil_request(100 + k)).status,
              svc::ServiceStatus::Ok);
  }

  // Written only by the bumper, read after it joins.
  std::map<std::uint64_t, std::vector<int>> snapshot_at{
      {feed.epoch(), base.available}};
  std::atomic<bool> churning{true};
  // Back-to-back bumps, so epochs often move between a client's
  // lock-free epoch load and its miss-path read.
  std::thread bumper([&] {
    for (int b = 0; b < 2000; ++b) {
      const AvailabilitySnapshot& next = b % 2 == 0 ? revoked : base;
      snapshot_at[feed.update(next)] = next.available;
      std::this_thread::yield();
    }
    churning.store(false);
  });

  constexpr int kClients = 4;
  struct Seen {
    std::uint64_t epoch;
    std::vector<int> stamp;
  };
  std::vector<std::vector<Seen>> seen(kClients);
  std::atomic<int> not_ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; churning.load() || i < 200; ++i) {
        const svc::ServiceReply reply =
            service.query(stencil_request(100 + (c * 5 + i) % kUniverse));
        if (reply.status != svc::ServiceStatus::Ok) {
          ++not_ok;
          continue;
        }
        seen[static_cast<std::size_t>(c)].push_back(
            Seen{reply.decision->epoch, reply.decision->config});
      }
    });
  }
  bumper.join();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(not_ok.load(), 0);
  std::size_t checked = 0, mismatched = 0;
  for (const std::vector<Seen>& client : seen) {
    for (const Seen& s : client) {
      const auto it = snapshot_at.find(s.epoch);
      if (it == snapshot_at.end() || s.stamp != it->second) ++mismatched;
      ++checked;
    }
  }
  EXPECT_EQ(mismatched, 0u)
      << "of " << checked
      << " replies, these carry a decision computed from a snapshot of "
         "another epoch";
  EXPECT_GE(checked, static_cast<std::size_t>(kClients) * 200);
  // The churn reached the cache: both epochs' decisions were recomputed.
  EXPECT_GT(service.metrics().counter("cold_computes").value(),
            static_cast<std::uint64_t>(kUniverse));
  EXPECT_GT(service.metrics().counter("cache_hits").value(), 0u);
}

// A hit answers with the cache entry's own ready future: two hits on one
// key share one state, and a replaced or invalidated entry gets a new one.
TEST(ServiceTest, WarmHitsShareOneReadyReplyPerEntry) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);
  ASSERT_EQ(service.query(stencil_request(500)).status,
            svc::ServiceStatus::Ok);
  const auto first = service.submit(stencil_request(500));
  const auto second = service.submit(stencil_request(500));
  EXPECT_TRUE(first.get().cache_hit);
  EXPECT_EQ(&first.get(), &second.get());

  svc::DecisionCache cache(/*capacity=*/8, /*shards=*/2);
  const auto decision = [](std::uint64_t epoch) {
    auto d = std::make_shared<svc::PartitionDecision>();
    d->key = 42;
    d->epoch = epoch;
    return std::shared_ptr<const svc::PartitionDecision>(std::move(d));
  };
  const auto d1 = decision(1);
  cache.insert(d1);
  EXPECT_FALSE(cache.lookup_reply(7).valid());
  const auto r1 = cache.lookup_reply(42);
  const auto r2 = cache.lookup_reply(42);
  ASSERT_TRUE(r1.valid());
  EXPECT_EQ(&r1.get(), &r2.get());
  EXPECT_EQ(r1.get().status, svc::ServiceStatus::Ok);
  EXPECT_TRUE(r1.get().cache_hit);
  EXPECT_EQ(r1.get().decision, d1);
  EXPECT_EQ(cache.lookup(42), d1);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);

  const auto d2 = decision(1);
  cache.insert(d2);  // replaces d1 under the same key
  const auto r3 = cache.lookup_reply(42);
  EXPECT_NE(&r3.get(), &r1.get());
  EXPECT_EQ(r3.get().decision, d2);
  EXPECT_EQ(r1.get().decision, d1);  // earlier hits keep their answer

  EXPECT_EQ(cache.invalidate_before(2), 1u);
  EXPECT_FALSE(cache.lookup_reply(42).valid());
  const auto d3 = decision(2);
  cache.insert(d3);
  const auto r4 = cache.lookup_reply(42);
  EXPECT_NE(&r4.get(), &r3.get());
  EXPECT_EQ(r4.get().decision, d3);
}

// Second-chance eviction, pinned on one shard of capacity 3: a hit sets
// the entry's referenced flag and moves nothing; an insert into the full
// shard moves referenced entries from the oldest end to the front,
// clearing their flags, and evicts the first unreferenced one.

std::shared_ptr<const svc::PartitionDecision> cache_decision(
    std::uint64_t key, std::uint64_t epoch = 1) {
  auto d = std::make_shared<svc::PartitionDecision>();
  d->key = key;
  d->epoch = epoch;
  return d;
}

bool resident(const svc::DecisionCache& cache, std::uint64_t key) {
  return cache.peek(key) != nullptr;
}

TEST(DecisionCacheTest, FullPassEvictsTheOldestInsert) {
  svc::DecisionCache cache(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t key : {1, 2, 3}) cache.insert(cache_decision(key));
  // Hit newest first.  LRU would now hold 1 as the most recent and evict
  // 3; second chance clears all three flags in one pass and evicts the
  // oldest insert.
  for (std::uint64_t key : {3, 2, 1}) ASSERT_NE(cache.lookup(key), nullptr);
  cache.insert(cache_decision(4));
  EXPECT_FALSE(resident(cache, 1));
  EXPECT_TRUE(resident(cache, 2));
  EXPECT_TRUE(resident(cache, 3));
  EXPECT_TRUE(resident(cache, 4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DecisionCacheTest, HitEntrySurvivesExactlyOnePass) {
  svc::DecisionCache cache(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t key : {1, 2, 3}) cache.insert(cache_decision(key));
  ASSERT_TRUE(cache.lookup_reply(1).valid());
  cache.insert(cache_decision(4));  // 1 gets its second chance; 2 goes
  EXPECT_TRUE(resident(cache, 1));
  EXPECT_FALSE(resident(cache, 2));
  cache.insert(cache_decision(5));  // 3 goes
  EXPECT_TRUE(resident(cache, 1));
  EXPECT_FALSE(resident(cache, 3));
  cache.insert(cache_decision(6));  // 1 was not hit again: it goes
  EXPECT_FALSE(resident(cache, 1));
  EXPECT_TRUE(resident(cache, 4));
  EXPECT_TRUE(resident(cache, 5));
  EXPECT_TRUE(resident(cache, 6));
}

TEST(DecisionCacheTest, NewEntrySurvivesItsOwnInsertIntoAReferencedShard) {
  svc::DecisionCache cache(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t key : {1, 2, 3}) cache.insert(cache_decision(key));
  for (std::uint64_t key : {1, 2, 3}) ASSERT_NE(cache.lookup(key), nullptr);
  cache.insert(cache_decision(4));
  EXPECT_TRUE(resident(cache, 4));
  EXPECT_FALSE(resident(cache, 1));
  EXPECT_EQ(cache.size(), 3u);

  // Capacity 1: the only resident entry is referenced, and a pass that
  // ran after the push would find the new entry the only unreferenced one.
  svc::DecisionCache single(/*capacity=*/1, /*shards=*/1);
  single.insert(cache_decision(1));
  ASSERT_NE(single.lookup(1), nullptr);
  single.insert(cache_decision(2));
  EXPECT_TRUE(resident(single, 2));
  EXPECT_FALSE(resident(single, 1));
  EXPECT_EQ(single.stats().evictions, 1u);
}

TEST(DecisionCacheTest, RefreshEvictsNothingAndEarnsASecondChance) {
  svc::DecisionCache cache(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t key : {1, 2, 3}) cache.insert(cache_decision(key));
  const auto refreshed = cache_decision(1);
  cache.insert(refreshed);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.peek(1), refreshed);
  for (std::uint64_t key : {2, 3}) EXPECT_TRUE(resident(cache, key));

  cache.insert(cache_decision(4));  // the refreshed 1 is passed over
  EXPECT_TRUE(resident(cache, 1));
  EXPECT_FALSE(resident(cache, 2));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(DecisionCacheTest, EvictionsCountEachVictimOnce) {
  svc::DecisionCache cache(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t key = 1; key <= 10; ++key) {
    cache.insert(cache_decision(key));
    // Keep the shard referenced, so most inserts move entries before
    // they evict; a move is not an eviction.
    for (std::uint64_t hit = key > 2 ? key - 2 : 1; hit <= key; ++hit) {
      (void)cache.lookup(hit);
    }
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.invalidate_before(2), 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
  EXPECT_EQ(cache.stats().invalidated, 3u);
}

// The second-chance rules written out on a std::list per shard, newest at
// the front: the reference whatever storage the cache uses is checked
// against.  Keys map to shards as DecisionCache::shard_for maps them.
class SecondChanceModel {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const svc::PartitionDecision> decision;
    bool referenced = false;
    /// The entry's ready reply once a lookup_reply() has built it.
    const svc::ServiceReply* reply = nullptr;
  };
  struct Shard {
    std::list<Entry> lru;
    svc::DecisionCache::Stats stats;
  };

  SecondChanceModel(std::size_t capacity, int shards)
      : shards_(std::min<std::size_t>(static_cast<std::size_t>(shards),
                                      capacity)),
        shard_capacity_((capacity + shards_.size() - 1) / shards_.size()) {}

  const std::vector<Shard>& shards() const { return shards_; }
  std::size_t shard_capacity() const { return shard_capacity_; }

  Entry* find(std::uint64_t key) {
    for (Entry& entry : shard_for(key).lru) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }

  /// lookup() and lookup_reply(): counts, and marks a hit.
  Entry* lookup(std::uint64_t key) {
    Shard& shard = shard_for(key);
    Entry* entry = find(key);
    if (entry == nullptr) {
      ++shard.stats.misses;
    } else {
      entry->referenced = true;
      ++shard.stats.hits;
    }
    return entry;
  }

  /// The victim's key, if the insert evicted one.
  std::optional<std::uint64_t> insert(
      std::shared_ptr<const svc::PartitionDecision> decision) {
    Shard& shard = shard_for(decision->key);
    if (Entry* entry = find(decision->key)) {
      entry->decision = std::move(decision);
      entry->referenced = true;
      entry->reply = nullptr;
      return std::nullopt;
    }
    std::optional<std::uint64_t> victim;
    if (shard.lru.size() >= shard_capacity_) {
      while (shard.lru.back().referenced) {
        shard.lru.back().referenced = false;
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         std::prev(shard.lru.end()));
      }
      victim = shard.lru.back().key;
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
    const std::uint64_t key = decision->key;
    shard.lru.push_front(Entry{key, std::move(decision)});
    return victim;
  }

  std::size_t invalidate_before(std::uint64_t epoch) {
    std::size_t purged = 0;
    for (Shard& shard : shards_) {
      purged += shard.lru.remove_if([&](const Entry& entry) {
        if (entry.decision->epoch >= epoch) return false;
        ++shard.stats.invalidated;
        return true;
      });
    }
    return purged;
  }

 private:
  Shard& shard_for(std::uint64_t key) {
    return shards_[(key ^ (key >> 32)) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t shard_capacity_;
};

bool same_stats(const svc::DecisionCache::Stats& a,
                const svc::DecisionCache::Stats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.invalidated == b.invalidated;
}

// Seeded random operation sequences, checked step by step against the
// list model: the resident keys and their decisions, each victim, each
// lookup's answer, the ready reply an entry shares between hits, and every
// counter, summed and per shard.
TEST(DecisionCacheTest, RingMatchesSecondChanceModel) {
  for (const int shards : {1, 4}) {
    for (const std::size_t capacity : {1, 3, 7, 16}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards
                                        << " capacity=" << capacity
                                        << " seed=" << seed);
        svc::DecisionCache cache(capacity, shards);
        SecondChanceModel model(capacity, shards);
        ASSERT_EQ(static_cast<std::size_t>(cache.num_shards()),
                  model.shards().size());
        ASSERT_EQ(cache.shard_capacity(), model.shard_capacity());

        Rng rng(seed * 7919 + capacity * 31 +
                static_cast<std::uint64_t>(shards));
        // About twice the capacity in keys, so shards overflow and keys
        // return after they were evicted; FNV keys take any value.
        std::vector<std::uint64_t> keys = {0, UINT64_MAX};
        while (keys.size() < 2 * capacity + 3) keys.push_back(rng.next_u64());
        std::uint64_t epoch = 1;

        for (int step = 0; step < 1500; ++step) {
          const std::uint64_t key =
              keys[static_cast<std::size_t>(rng.next_int(
                  0, static_cast<std::int64_t>(keys.size()) - 1))];
          const std::int64_t op = rng.next_int(0, 99);
          if (op < 35) {
            auto decision = std::make_shared<svc::PartitionDecision>();
            decision->key = key;
            decision->epoch =
                epoch - static_cast<std::uint64_t>(
                            rng.next_int(0, epoch > 1 ? 1 : 0));
            const std::shared_ptr<const svc::PartitionDecision> shared =
                std::move(decision);
            const auto victim = model.insert(shared);
            cache.insert(shared);
            EXPECT_EQ(cache.peek(key), shared);
            if (victim) {
              EXPECT_EQ(cache.peek(*victim), nullptr) << *victim;
            }
          } else if (op < 55) {
            const SecondChanceModel::Entry* entry = model.lookup(key);
            EXPECT_EQ(cache.lookup(key),
                      entry == nullptr ? nullptr : entry->decision);
          } else if (op < 75) {
            SecondChanceModel::Entry* entry = model.lookup(key);
            const auto reply = cache.lookup_reply(key);
            EXPECT_EQ(reply.valid(), entry != nullptr);
            if (entry != nullptr && reply.valid()) {
              EXPECT_EQ(reply.get().decision, entry->decision);
              EXPECT_TRUE(reply.get().cache_hit);
              if (entry->reply != nullptr) {
                EXPECT_EQ(&reply.get(), entry->reply);
              }
              entry->reply = &reply.get();
            }
          } else if (op < 90) {
            const SecondChanceModel::Entry* entry = model.find(key);
            EXPECT_EQ(cache.peek(key),
                      entry == nullptr ? nullptr : entry->decision);
          } else if (op < 96) {
            const auto before = static_cast<std::uint64_t>(
                rng.next_int(1, static_cast<std::int64_t>(epoch) + 1));
            EXPECT_EQ(cache.invalidate_before(before),
                      model.invalidate_before(before));
          } else {
            ++epoch;
          }

          std::size_t model_size = 0;
          svc::DecisionCache::Stats model_total;
          const auto shard_stats = cache.shard_stats();
          ASSERT_EQ(shard_stats.size(), model.shards().size());
          for (std::size_t s = 0; s < shard_stats.size(); ++s) {
            const SecondChanceModel::Shard& shard = model.shards()[s];
            EXPECT_EQ(shard_stats[s].size, shard.lru.size()) << "shard " << s;
            EXPECT_TRUE(same_stats(shard_stats[s].stats, shard.stats))
                << "shard " << s;
            model_size += shard.lru.size();
            model_total.hits += shard.stats.hits;
            model_total.misses += shard.stats.misses;
            model_total.evictions += shard.stats.evictions;
            model_total.invalidated += shard.stats.invalidated;
          }
          EXPECT_EQ(cache.size(), model_size);
          EXPECT_TRUE(same_stats(cache.stats(), model_total));
          for (const std::uint64_t resident : keys) {
            const SecondChanceModel::Entry* entry = model.find(resident);
            EXPECT_EQ(cache.peek(resident),
                      entry == nullptr ? nullptr : entry->decision)
                << "key " << resident;
          }
          if (HasFailure()) FAIL() << "diverged at step " << step;
        }
      }
    }
  }
}

// Part of the TSan tier: 4 threads hit a hot key set in a small cache
// while inserting cold keys that overflow every shard, so hits set flags
// while eviction passes clear them and move entries.
TEST(DecisionCacheTest, ConcurrentHitsAndOverflowingInsertsKeepKeysAndBounds) {
  svc::DecisionCache cache(/*capacity=*/16, /*shards=*/4);
  const std::size_t bound =
      static_cast<std::size_t>(cache.num_shards()) * cache.shard_capacity();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHot = 8;
  constexpr std::uint64_t kRounds = 4000;
  std::atomic<std::uint64_t> wrong_keys{0};
  std::atomic<std::uint64_t> oversize{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        const std::uint64_t hot = (i * 3 + static_cast<std::uint64_t>(t)) %
                                  kHot;
        const auto reply = cache.lookup_reply(hot);
        if (reply.valid()) {
          if (reply.get().decision->key != hot) ++wrong_keys;
        } else {
          cache.insert(cache_decision(hot));
        }
        if (const auto d = cache.lookup(hot); d != nullptr && d->key != hot) {
          ++wrong_keys;
        }
        const std::uint64_t cold =
            kHot + i * kThreads + static_cast<std::uint64_t>(t);
        cache.insert(cache_decision(cold));
        if (i % 64 == 0 && cache.size() > bound) ++oversize;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_keys.load(), 0u);
  EXPECT_EQ(oversize.load(), 0u);
  EXPECT_LE(cache.size(), bound);
  const svc::DecisionCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  for (const auto& shard : cache.shard_stats()) {
    EXPECT_LE(shard.size, cache.shard_capacity());
    EXPECT_GT(shard.stats.evictions, 0u) << "every shard must overflow";
  }
}

// A Repartition request is Eq. 3 over the quantised observed rates: the
// reply preserves the rank count and the total, the fastest rank gets the
// largest share, and a recurring imbalance pattern is answered from the
// cache.
TEST(ServiceTest, RepartitionPreservesTotalsAndRecurringPatternsHit) {
  const Testbed& bed = testbed();
  AvailabilityFeed feed = make_feed(bed.net);
  svc::PartitionService service(bed.net, bed.db, feed, resolve_stencil);

  svc::PartitionRequest request;
  request.kind = svc::PartitionRequest::Kind::Repartition;
  request.spec = "job-a";
  request.n = 800;
  request.rate_milli = {1000, 500, 250, 250};

  const svc::ServiceReply cold = service.query(request);
  ASSERT_EQ(cold.status, svc::ServiceStatus::Ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const PartitionVector& partition = cold.decision->partition;
  EXPECT_EQ(partition.num_ranks(), 4);
  EXPECT_EQ(partition.total(), 800);
  for (int rank = 1; rank < partition.num_ranks(); ++rank) {
    EXPECT_GT(partition.at(0), partition.at(rank)) << rank;
  }

  const svc::ServiceReply hit = service.query(request);
  ASSERT_EQ(hit.status, svc::ServiceStatus::Ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.decision.get(), cold.decision.get());
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

// Cache keys are pure functions of (request, network signature, epoch):
// identical inputs agree, every field participates, and the epoch makes
// stale keys unreachable by construction.
TEST(RequestKeyTest, DeterministicAndFieldSensitive) {
  const Network net = presets::paper_testbed();
  const std::uint64_t sig = svc::network_signature(net);
  EXPECT_EQ(sig, svc::network_signature(presets::paper_testbed()));
  EXPECT_NE(sig, svc::network_signature(presets::fig1_network()));

  const svc::PartitionRequest base = stencil_request(600);
  const std::uint64_t key = svc::request_key(base, sig, 1);
  EXPECT_EQ(key, svc::request_key(stencil_request(600), sig, 1));
  EXPECT_NE(key, svc::request_key(base, sig, 2));          // epoch
  EXPECT_NE(key, svc::request_key(stencil_request(601), sig, 1));  // n

  svc::PartitionRequest variant = base;
  variant.spec = "gauss";
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.iterations = 11;
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.options.search = PartitionOptions::Search::Linear;
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  variant = base;
  variant.kind = svc::PartitionRequest::Kind::Repartition;
  variant.rate_milli = {1000, 500};
  EXPECT_NE(key, svc::request_key(variant, sig, 1));

  // Rate vectors are length-prefixed: a rate moving between requests
  // cannot alias.
  svc::PartitionRequest a = variant;
  a.rate_milli = {1000, 500, 250};
  svc::PartitionRequest b = variant;
  b.rate_milli = {1000, 500};
  EXPECT_NE(svc::request_key(a, sig, 1), svc::request_key(b, sig, 1));
}

}  // namespace
}  // namespace netpart
