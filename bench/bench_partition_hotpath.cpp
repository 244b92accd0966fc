// Partition-search hot path: the evaluation engine under the microscope.
//
// Seven sections, emitted as BENCH_partition.json:
//
//   * eval -- ns per cost-model evaluation, reference path (estimate(),
//     materialises the Eq. 3 vector) vs fast path (estimate_into(), the
//     closed-form per-cluster engine the searches run on), plus their
//     bitwise agreement on every cost field.
//   * batched -- ns per evaluation through estimate_batch (the SoA lane
//     engine the exhaustive sweep and start scoring run on), plus bitwise
//     agreement of every lane against estimate_into.
//   * delta -- ns per +-1-move probe through estimate_delta (the engine
//     the hill climb runs on), plus bitwise agreement of every probe
//     against a from-scratch estimate_into of the moved configuration.
//   * alloc -- heap allocations per steady-state fast/batched/delta
//     evaluation, counted by a global operator-new hook in this binary.
//     The contract is exactly zero once the scratch has warmed up.
//   * search -- full partition() searches per second with one long-lived
//     scratch, single- and multi-threaded (each thread owns its scratch;
//     the estimator is shared read-only).
//   * general -- full general_partition() searches per second (multi-start
//     + delta-driven hill climb) with one long-lived scratch.
//   * exhaustive -- the work-stealing product-space sweep, serial vs 4
//     threads, on a wider availability space; the configurations must
//     match exactly (the merge is deterministic at every thread count).
//
// Gate ledger (bench::GateSet): the checks block's `pass` is the AND over
// gates that ran; skipped gates land in `gates_skipped` with a reason.
// Structural gates (bitwise on all engines, zero-alloc, preflight
// zero-cost, allocation-free service hits, bounded allocations per service
// miss, exhaustive determinism) always run -- --smoke runs a reduced rep
// count and exits nonzero if any of them fails; tier-1 runs that on every
// build.  Wall-clock gates (fast >= 3x,
// batched < 40 ns, parallel speedup >= 0.8x per effective thread) run in
// full mode only, and the single-core skip (no wall-clock speedup
// physically possible; batched < 40 ns is a multi-core-host gate) is
// explicit, unit-tested, and driven by detected_hardware_concurrency() /
// NETPART_HW_CONCURRENCY.
//
// Keys: eval_reps, searches, exhaustive_size, threads, json_out, smoke.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "analysis/preflight.hpp"
#include "bench/common.hpp"
#include "core/general.hpp"
#include "net/builder.hpp"
#include "svc/service.hpp"
#include "svc/validate.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps a relaxed
// counter.  Used to prove the fast path's zero-allocation contract.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netpart {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Minimum ns/op across `windows` equal timing windows.  One long average
/// absorbs every hypervisor steal slice and background wakeup on a shared
/// host (observed 2x swings run to run); the fastest window is the closest
/// observable estimate of the code's true cost, and it can never flatter:
/// no window can run faster than the code itself.  `body(reps)` must
/// perform exactly `reps` operations.
template <typename Body>
double min_window_ns_per_op(std::int64_t total_reps, int windows,
                            const Body& body) {
  const std::int64_t per =
      std::max<std::int64_t>(1, total_reps / std::max(1, windows));
  double best_ns = std::numeric_limits<double>::infinity();
  for (std::int64_t done = 0; done < total_reps;) {
    const std::int64_t reps = std::min(per, total_reps - done);
    const auto t0 = Clock::now();
    body(reps);
    best_ns = std::min(best_ns,
                       ms_since(t0) * 1e6 / static_cast<double>(reps));
    done += reps;
  }
  return best_ns;
}

/// Random valid configurations (total > 0) over the snapshot.
std::vector<ProcessorConfig> sample_configs(Rng& rng,
                                            const AvailabilitySnapshot& snap,
                                            int count) {
  std::vector<ProcessorConfig> configs;
  while (static_cast<int>(configs.size()) < count) {
    ProcessorConfig config(snap.available.size(), 0);
    int total = 0;
    for (std::size_t c = 0; c < config.size(); ++c) {
      config[c] = static_cast<int>(rng.next_int(0, snap.available[c]));
      total += config[c];
    }
    if (total > 0) configs.push_back(std::move(config));
  }
  return configs;
}

struct Testbed {
  Network net;
  CalibrationResult cal;
  AvailabilitySnapshot snap;
  ComputationSpec spec;

  Testbed(Network network, int n)
      : net(std::move(network)),
        cal(bench::calibrate_testbed(net)),
        snap(bench::idle_snapshot(net)),
        spec(apps::make_stencil_spec(
            apps::StencilConfig{.n = n, .iterations = 10,
                                .overlap = false})) {}
};

/// Deterministic heterogeneous network: `clusters` clusters of exactly
/// `per_cluster` processors each, speeds spread over the paper's
/// Sparc2/IPC range -- so the exhaustive space is exactly
/// (per_cluster+1)^clusters.
Network make_grid_network(int clusters, int per_cluster) {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (int i = 0; i < clusters; ++i) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(i);
    t.flop_time = SimTime::micros(0.1 + 0.1 * i);
    t.int_time = t.flop_time * 0.5;
    t.comm_per_byte = SimTime::nanos(800);
    t.comm_per_message = SimTime::micros(500);
    t.data_format =
        i % 2 == 0 ? DataFormat::BigEndian : DataFormat::LittleEndian;
    t.coerce_per_byte = SimTime::nanos(400);
    b.add_cluster(t.name, t, per_cluster);
  }
  return b.build();
}

int run(const Config& args) {
  const bool smoke = args.get_bool_or("smoke", false);
  const auto eval_reps = args.get_int_or("eval_reps", smoke ? 20000 : 200000);
  const auto searches = args.get_int_or("searches", smoke ? 200 : 2000);
  const auto exhaustive_size =
      args.get_int_or("exhaustive_size", smoke ? 8 : 12);
  const int threads = static_cast<int>(args.get_int_or("threads", 4));
  const std::string json_out =
      args.get_or("json_out", "BENCH_partition.json");
  const unsigned hw = bench::detected_hardware_concurrency();

  // The 4-cluster preset: the shape the paper's testbed generalises to.
  Testbed bed(make_grid_network(/*clusters=*/4, /*per_cluster=*/6),
              /*n=*/1200);
  CycleEstimator estimator(bed.net, bed.cal.db, bed.spec);
  Rng rng(7);
  const std::vector<ProcessorConfig> configs =
      sample_configs(rng, bed.snap, 64);

  JsonValue root = JsonValue::object();
  root.set("bench", "partition_hotpath");
  root.set("meta", JsonValue::object()
                       .set("clusters", bed.net.num_clusters())
                       .set("processors", bed.snap.total())
                       .set("hardware_concurrency",
                            static_cast<std::int64_t>(hw))
                       // The parallel gate's skip condition, spelled out so
                       // consumers need not re-derive it from
                       // hardware_concurrency.
                       .set("single_core", hw <= 1)
                       .set("smoke", smoke));

  // --- eval: ns per evaluation, reference vs fast, bitwise agreement ----
  EstimatorScratch scratch;
  bool bitwise = true;
  for (const ProcessorConfig& config : configs) {
    const CycleEstimate ref = estimator.estimate(config);
    const FastEstimate fast = estimator.estimate_into(config, scratch);
    bitwise = bitwise && ref.t_comp_ms == fast.t_comp_ms &&
              ref.t_comm_ms == fast.t_comm_ms &&
              ref.t_overlap_ms == fast.t_overlap_ms &&
              ref.t_c_ms == fast.t_c_ms;
  }

  // All per-eval timings are the minimum over kWindows windows (see
  // min_window_ns_per_op): this host class shares physical cores, and a
  // single long average would gate on hypervisor steal, not on the code.
  constexpr int kWindows = 16;
  double sink = 0.0;
  const double ref_ns = min_window_ns_per_op(
      eval_reps, kWindows, [&](std::int64_t reps) {
        for (std::int64_t i = 0; i < reps; ++i) {
          sink += estimator
                      .estimate(configs[static_cast<std::size_t>(i) %
                                        configs.size()])
                      .t_c_ms;
        }
      });
  const double fast_ns = min_window_ns_per_op(
      eval_reps, kWindows, [&](std::int64_t reps) {
        for (std::int64_t i = 0; i < reps; ++i) {
          sink += estimator
                      .estimate_into(configs[static_cast<std::size_t>(i) %
                                             configs.size()],
                                     scratch)
                      .t_c_ms;
        }
      });
  const double eval_speedup = ref_ns / fast_ns;
  root.set("eval", JsonValue::object()
                       .set("evals", eval_reps)
                       .set("timing_windows",
                            static_cast<std::int64_t>(kWindows))
                       .set("reference_ns_per_eval", ref_ns)
                       .set("fast_ns_per_eval", fast_ns)
                       .set("speedup", eval_speedup)
                       .set("bitwise_match", bitwise));

  // --- batched: the SoA lane engine ------------------------------------
  // Bitwise agreement first: every lane of every batch width (full lanes
  // and the scalar remainder) must reproduce estimate_into exactly.
  std::vector<FastEstimate> batch_out(configs.size());
  bool batched_bitwise = true;
  constexpr auto kL = static_cast<std::size_t>(BatchScratch::kLanes);
  for (const std::size_t width :
       {std::size_t{1}, kL - 1, kL, kL + 1, 2 * kL - 1, configs.size()}) {
    estimator.estimate_batch(configs.data(), width, batch_out.data(),
                             scratch);
    for (std::size_t i = 0; i < width; ++i) {
      const FastEstimate fast = estimator.estimate_into(configs[i], scratch);
      batched_bitwise = batched_bitwise &&
                        batch_out[i].t_comp_ms == fast.t_comp_ms &&
                        batch_out[i].t_comm_ms == fast.t_comm_ms &&
                        batch_out[i].t_overlap_ms == fast.t_overlap_ms &&
                        batch_out[i].t_c_ms == fast.t_c_ms;
    }
  }

  // Window reps round up to whole passes over the config set so every
  // window times complete batches.
  std::int64_t batched_evals = 0;
  const double batched_ns = min_window_ns_per_op(
      eval_reps, kWindows, [&](std::int64_t reps) {
        std::int64_t done = 0;
        while (done < reps) {
          estimator.estimate_batch(configs.data(), configs.size(),
                                   batch_out.data(), scratch);
          for (const FastEstimate& e : batch_out) sink += e.t_c_ms;
          done += static_cast<std::int64_t>(configs.size());
        }
        batched_evals += done;
      });
  root.set("batched",
           JsonValue::object()
               .set("evals", batched_evals)
               .set("batched_ns_per_eval", batched_ns)
               .set("speedup_vs_fast", fast_ns / batched_ns)
               .set("bitwise_match", batched_bitwise));

  // --- delta: the incremental +/-1 path the hill climb runs on ----------
  // Bind a baseline once, then score alternating +1/-1 moves against it --
  // the exact access pattern of a climb probing a neighbourhood.  Bitwise
  // agreement with estimate_into on the moved configuration is asserted
  // here for every probe of the first pass (the property tier covers
  // randomised sequences).
  DeltaScratch delta_scratch;
  bool delta_bitwise = true;
  std::vector<std::pair<ClusterId, int>> probes;  // valid +/-1 moves
  {
    const ProcessorConfig& baseline = configs[0];
    const int total = config_total(baseline);
    estimator.bind_delta(baseline, delta_scratch, scratch);
    ProcessorConfig moved = baseline;
    for (std::size_t c = 0; c < baseline.size(); ++c) {
      for (const int delta : {+1, -1}) {
        const int p = baseline[c] + delta;
        if (p < 0 || p > bed.snap.available[c]) continue;
        if (total + delta == 0) continue;
        probes.emplace_back(static_cast<ClusterId>(c), delta);
        const FastEstimate d = estimator.estimate_delta(
            static_cast<ClusterId>(c), delta, delta_scratch, scratch);
        moved = baseline;
        moved[c] = p;
        const FastEstimate f = estimator.estimate_into(moved, scratch);
        delta_bitwise = delta_bitwise && d.t_comp_ms == f.t_comp_ms &&
                        d.t_comm_ms == f.t_comm_ms &&
                        d.t_overlap_ms == f.t_overlap_ms &&
                        d.t_c_ms == f.t_c_ms;
      }
    }
  }
  std::int64_t delta_evals = 0;
  const double delta_ns = min_window_ns_per_op(
      eval_reps, kWindows, [&](std::int64_t reps) {
        for (std::int64_t i = 0; i < reps; ++i) {
          const auto& [c, delta] =
              probes[static_cast<std::size_t>(i) % probes.size()];
          sink +=
              estimator.estimate_delta(c, delta, delta_scratch, scratch)
                  .t_c_ms;
        }
        delta_evals += reps;
      });
  root.set("delta",
           JsonValue::object()
               .set("evals", delta_evals)
               .set("delta_ns_per_eval", delta_ns)
               .set("speedup_vs_fast", fast_ns / delta_ns)
               .set("bitwise_match", delta_bitwise));

  // --- alloc: the zero-allocation contract ------------------------------
  // The scratch is warm (the loops above).  Every allocation between the
  // two reads below is a contract violation.
  const std::int64_t alloc_evals = smoke ? 5000 : 50000;
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < alloc_evals; ++i) {
    sink += estimator
                .estimate_into(configs[static_cast<std::size_t>(i) %
                                       configs.size()],
                               scratch)
                .t_c_ms;
  }
  const std::uint64_t fast_allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  // Same contract for the lane engine (its buffers warmed up above).
  const std::uint64_t batch_allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < alloc_evals;
       i += static_cast<std::int64_t>(configs.size())) {
    estimator.estimate_batch(configs.data(), configs.size(),
                             batch_out.data(), scratch);
  }
  const std::uint64_t batched_allocs =
      g_allocations.load(std::memory_order_relaxed) - batch_allocs_before;

  // Same contract for the delta path (its staging warmed up at bind).
  const std::uint64_t delta_allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < alloc_evals; ++i) {
    const auto& [c, delta] =
        probes[static_cast<std::size_t>(i) % probes.size()];
    sink += estimator.estimate_delta(c, delta, delta_scratch, scratch)
                .t_c_ms;
  }
  const std::uint64_t delta_allocs =
      g_allocations.load(std::memory_order_relaxed) - delta_allocs_before;

  // For contrast: allocations of one reference evaluation (vector
  // materialisation and friends).
  const std::uint64_t ref_before =
      g_allocations.load(std::memory_order_relaxed);
  sink += estimator.estimate(configs[0]).t_c_ms;
  const std::uint64_t ref_allocs =
      g_allocations.load(std::memory_order_relaxed) - ref_before;

  root.set("alloc",
           JsonValue::object()
               .set("fast_evals", alloc_evals)
               .set("fast_allocations", fast_allocs)
               .set("batched_allocations", batched_allocs)
               .set("delta_allocations", delta_allocs)
               .set("allocations_per_eval",
                    static_cast<double>(fast_allocs) /
                        static_cast<double>(alloc_evals))
               .set("reference_allocations_per_eval", ref_allocs));

  // --- preflight: the admission gate's zero-cost contract ---------------
  // The partition service lints its network + cost model once at startup
  // (analysis::preflight) and screens every request at submit()
  // (svc::validate_request) in front of the cache.  Neither may tax the
  // cached hot path: validation must be allocation-free, and the startup
  // lint must not consume a single estimator evaluation.  The whole warm
  // hit -- validation, epoch, key, shard lookup, the entry's ready reply,
  // the hit metrics -- must not allocate either.
  std::uint64_t validate_allocs = 0;
  std::uint64_t preflight_evals = 0;
  std::uint64_t service_hit_allocs = 0;
  std::uint64_t service_miss_allocs = 0;
  const std::int64_t validate_reps = smoke ? 5000 : 50000;
  constexpr std::int64_t kServiceHits = 10000;
  constexpr std::int64_t kServiceMisses = 10000;
  constexpr std::int64_t kMissWarmup = 2000;
  {
    svc::PartitionRequest request;
    request.spec = "stencil";
    request.n = 1200;
    request.iterations = 10;
    bool all_valid = true;
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::int64_t i = 0; i < validate_reps; ++i) {
      all_valid = all_valid && svc::validate_request(request) == nullptr;
    }
    validate_allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (!all_valid) validate_allocs = ~std::uint64_t{0};  // can't happen

    AvailabilityFeed feed(bed.snap);
    svc::ServiceOptions service_options;
    service_options.workers = 1;
    svc::PartitionService service(
        bed.net, bed.cal.db, feed,
        [&bed](const svc::PartitionRequest&) { return bed.spec; },
        service_options);
    // One cold compute fills the entry; one warm-up hit builds its reply.
    bool all_hits = service.query(request).status == svc::ServiceStatus::Ok &&
                    service.query(request).cache_hit;
    const std::uint64_t hits_before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::int64_t i = 0; i < kServiceHits; ++i) {
      all_hits = all_hits && service.submit(request).get().cache_hit;
    }
    service_hit_allocs =
        g_allocations.load(std::memory_order_relaxed) - hits_before;
    if (!all_hits) service_hit_allocs = ~std::uint64_t{0};

    // A cold miss end to end, on every thread: the client's admission (the
    // snapshot copy, the Job, its promise), the worker's resolve,
    // estimator, search, decision and cache insert, and the eviction the
    // insert causes.  Synchronous query()s on distinct
    // keys against one worker, after enough warm-up misses that the cache
    // (1024 entries) is full and evicting.
    svc::PartitionService miss_service(
        bed.net, bed.cal.db, feed,
        [](const svc::PartitionRequest& r) {
          return apps::make_stencil_spec(apps::StencilConfig{
              .n = static_cast<int>(r.n), .iterations = r.iterations,
              .overlap = false});
        },
        service_options);
    svc::PartitionRequest miss = request;
    bool all_misses = true;
    const auto run_misses = [&](std::int64_t count) {
      for (std::int64_t i = 0; i < count; ++i) {
        ++miss.n;  // a key no earlier query used
        const svc::ServiceReply reply = miss_service.query(miss);
        all_misses = all_misses &&
                     reply.status == svc::ServiceStatus::Ok &&
                     !reply.cache_hit;
      }
    };
    run_misses(kMissWarmup);
    const std::uint64_t misses_before =
        g_allocations.load(std::memory_order_relaxed);
    run_misses(kServiceMisses);
    service_miss_allocs =
        g_allocations.load(std::memory_order_relaxed) - misses_before;
    if (!all_misses) service_miss_allocs = ~std::uint64_t{0};

    const std::uint64_t evals_before = estimator.evaluations();
    const analysis::DiagnosticSink gate =
        analysis::preflight(bed.net, bed.cal.db);
    preflight_evals = estimator.evaluations() - evals_before;

    root.set("preflight",
             JsonValue::object()
                 .set("validate_calls", validate_reps)
                 .set("validate_allocations",
                      static_cast<std::int64_t>(validate_allocs))
                 .set("service_hits", kServiceHits)
                 .set("service_hit_allocations",
                      static_cast<std::int64_t>(service_hit_allocs))
                 .set("service_misses", kServiceMisses)
                 .set("service_miss_allocations",
                      static_cast<std::int64_t>(service_miss_allocs))
                 .set("preflight_estimator_evals",
                      static_cast<std::int64_t>(preflight_evals))
                 .set("preflight_errors", gate.errors())
                 .set("preflight_warnings", gate.warnings()));
  }

  // --- search: whole partition() searches per second --------------------
  {
    EstimatorScratch search_scratch;
    PartitionResult warm =
        partition(estimator, bed.snap, {}, &search_scratch);
    sink += warm.estimate.t_c_ms;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < searches; ++i) {
      sink += partition(estimator, bed.snap, {}, &search_scratch)
                  .estimate.t_c_ms;
    }
    const double single_ms = ms_since(t0);

    const auto t1 = Clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    const std::int64_t per_thread =
        (searches + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&estimator, &bed, per_thread] {
        EstimatorScratch local;
        double local_sink = 0.0;
        for (std::int64_t i = 0; i < per_thread; ++i) {
          local_sink +=
              partition(estimator, bed.snap, {}, &local).estimate.t_c_ms;
        }
        (void)local_sink;
      });
    }
    for (auto& t : pool) t.join();
    const double multi_ms = ms_since(t1);
    const double multi_searches =
        static_cast<double>(per_thread) * threads;

    root.set("search",
             JsonValue::object()
                 .set("searches", searches)
                 .set("single_thread_per_sec",
                      static_cast<double>(searches) * 1e3 / single_ms)
                 .set("threads", threads)
                 .set("multi_thread_per_sec", multi_searches * 1e3 / multi_ms));
  }

  // --- general: general_partition searches per second --------------------
  // The multi-start hill climb (heuristic + corner + random starts, then
  // +-1 probing until a local optimum).  This is the searcher adaptive
  // repartitioning leans on, so its whole-search throughput is a first
  // class metric alongside partition()'s.
  {
    const std::int64_t general_searches =
        std::max<std::int64_t>(smoke ? 20 : 200, searches / 10);
    EstimatorScratch general_scratch;
    PartitionResult warm =
        general_partition(estimator, bed.snap, {}, &general_scratch);
    sink += warm.estimate.t_c_ms;
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < general_searches; ++i) {
      sink += general_partition(estimator, bed.snap, {}, &general_scratch)
                  .estimate.t_c_ms;
    }
    const double general_ms = ms_since(t0);
    root.set("general",
             JsonValue::object()
                 .set("searches", general_searches)
                 .set("searches_per_sec",
                      static_cast<double>(general_searches) * 1e3 /
                          general_ms)
                 .set("us_per_search",
                      general_ms * 1e3 /
                          static_cast<double>(general_searches)));
  }

  // --- exhaustive: serial vs sharded sweep ------------------------------
  // A wider snapshot so the sweep is worth sharding (the 4-cluster preset
  // above enumerates in microseconds): (exhaustive_size+1)^4 configs.
  Testbed wide(make_grid_network(/*clusters=*/4,
                                 static_cast<int>(exhaustive_size)),
               /*n=*/2400);
  CycleEstimator wide_estimator(wide.net, wide.cal.db, wide.spec);
  std::uint64_t space = 1;
  for (int n : wide.snap.available) {
    space *= static_cast<std::uint64_t>(n) + 1;
  }

  const auto t_serial = Clock::now();
  const PartitionResult serial =
      exhaustive_partition(wide_estimator, wide.snap, {.threads = 1});
  const double serial_ms = ms_since(t_serial);

  const auto t_parallel = Clock::now();
  const PartitionResult parallel =
      exhaustive_partition(wide_estimator, wide.snap, {.threads = threads});
  const double parallel_ms = ms_since(t_parallel);

  const bool exhaustive_match = serial.config == parallel.config;
  const double exhaustive_speedup = serial_ms / parallel_ms;
  root.set("exhaustive",
           JsonValue::object()
               .set("space", static_cast<std::int64_t>(space))
               .set("serial_ms", serial_ms)
               .set("threads", threads)
               .set("parallel_ms", parallel_ms)
               .set("speedup", exhaustive_speedup)
               .set("configs_match", exhaustive_match));

  // --- checks -----------------------------------------------------------
  // Structural gates (bitwise identity, allocation contracts) run in every
  // mode.  Wall-clock gates run only where their verdict means something:
  // never under --smoke (reduced reps), and the absolute-nanosecond and
  // parallel-speedup gates never on a single-core host, where the numbers
  // measure the hypervisor, not the code.  `pass` is the AND over gates
  // that ran; `gates_skipped` lists the rest with reasons.
  const bool zero_alloc =
      fast_allocs == 0 && batched_allocs == 0 && delta_allocs == 0;
  const bool preflight_zero = validate_allocs == 0 && preflight_evals == 0;
  const bool service_hit_zero_alloc = service_hit_allocs == 0;
  // Allocations over the 10,000 cold misses may not rise above what the
  // miss path costs today: 17.03 per miss with gcc 12.2's libstdc++ (the
  // .03 is the job queue's deque taking a new block every 32 jobs).  The
  // count is the same on every run.  Before the winner was materialised
  // from the fast path and the estimator built without reallocating, it
  // was 43.03 per miss; before the estimator kept its per-cluster
  // constants in one table, 22.03; before the cache shards became flat
  // rings and the in-flight map a fixed table, 21.03; before the
  // estimator dropped its fitted-cluster list, 18.03.
  constexpr std::uint64_t kMaxServiceMissAllocations = 170313;
  const bool service_miss_allocations_bounded =
      service_miss_allocs <= kMaxServiceMissAllocations;
  const bool fast_3x = eval_speedup >= 3.0;
  const bool batched_under_40ns = batched_ns < 40.0;
  const bench::SpeedupEvaluation parallel_eval =
      bench::evaluate_parallel_speedup(smoke, threads, exhaustive_speedup);
  const bench::SpeedupGate parallel_gate = parallel_eval.gate;

  bench::GateSet gates;
  gates.require("bitwise_match", bitwise);
  gates.require("batched_bitwise_match", batched_bitwise);
  gates.require("delta_bitwise_match", delta_bitwise);
  gates.require("zero_alloc_per_eval", zero_alloc);
  gates.require("preflight_zero_cost", preflight_zero);
  gates.require("service_hit_zero_alloc", service_hit_zero_alloc);
  gates.require("service_miss_allocations_bounded",
                service_miss_allocations_bounded);
  gates.require("exhaustive_configs_match", exhaustive_match);
  if (smoke) {
    gates.skip("fast_speedup_3x", "skipped_smoke");
    gates.skip("batched_under_40ns", "skipped_smoke");
  } else {
    gates.require("fast_speedup_3x", fast_3x);
    if (hw <= 1) {
      // The <40 ns bar is an absolute wall-clock target; on a single-core
      // (shared, steal-prone) host it gates the neighbours, not the
      // engine.  The measured number is still reported above -- honestly
      // -- and multi-core hosts enforce the bar.
      gates.skip("batched_under_40ns", "skipped_single_core");
    } else {
      gates.require("batched_under_40ns", batched_under_40ns);
    }
  }
  if (parallel_gate == bench::SpeedupGate::Pass ||
      parallel_gate == bench::SpeedupGate::Fail) {
    gates.require("parallel_speedup",
                  parallel_gate == bench::SpeedupGate::Pass);
  } else {
    gates.skip("parallel_speedup", bench::to_string(parallel_gate));
  }
  const bool pass = gates.pass();
  root.set("checks",
           JsonValue::object()
               .set("bitwise_match", bitwise)
               .set("batched_bitwise_match", batched_bitwise)
               .set("delta_bitwise_match", delta_bitwise)
               .set("zero_alloc_per_eval", zero_alloc)
               .set("preflight_zero_cost", preflight_zero)
               .set("service_hit_zero_alloc", service_hit_zero_alloc)
               .set("service_miss_allocations_bounded",
                    service_miss_allocations_bounded)
               .set("exhaustive_configs_match", exhaustive_match)
               .set("fast_speedup_3x", fast_3x)
               .set("batched_under_40ns", batched_under_40ns)
               .set("parallel_speedup", bench::to_string(parallel_gate))
               .set("gates_skipped", gates.skipped_json())
               .set("pass", pass));
  (void)sink;

  Table table({"metric", "value"});
  table.add_row({"reference ns/eval", format_double(ref_ns, 1)});
  table.add_row({"fast ns/eval", format_double(fast_ns, 1)});
  table.add_row({"batched ns/eval", format_double(batched_ns, 1)});
  table.add_row({"delta ns/eval", format_double(delta_ns, 1)});
  table.add_row({"eval speedup", format_double(eval_speedup, 2) + "x"});
  table.add_row({"allocations/eval (fast, steady state)",
                  format_double(static_cast<double>(fast_allocs) /
                                    static_cast<double>(alloc_evals),
                                3)});
  table.add_row({"exhaustive serial / parallel (ms)",
                  format_double(serial_ms, 1) + " / " +
                      format_double(parallel_ms, 1)});
  table.add_row({"bitwise fast == reference", bitwise ? "yes" : "NO"});
  table.add_row(
      {"bitwise batched == fast", batched_bitwise ? "yes" : "NO"});
  table.add_row({"bitwise delta == fast", delta_bitwise ? "yes" : "NO"});
  table.add_row({"preflight gate zero-cost", preflight_zero ? "yes" : "NO"});
  table.add_row({"service hit allocations (10k warm hits)",
                 std::to_string(service_hit_allocs)});
  table.add_row({"service miss allocations (10k cold misses)",
                 std::to_string(service_miss_allocs)});
  table.add_row({"parallel speedup gate", bench::to_string(parallel_gate)});
  std::printf("%s\n", table.render("partition hot path").c_str());

  bench::write_bench_json(json_out, root);
  std::printf("results -> %s\n", json_out.c_str());

  if (smoke && !pass) {
    // Under --smoke every gate that ran is structural (the wall-clock
    // gates were skipped), so any failure is a contract violation.
    std::fprintf(stderr,
                 "bench_partition_hotpath --smoke FAILED: bitwise=%d "
                 "batched_bitwise=%d delta_bitwise=%d zero_alloc=%d "
                 "preflight_zero=%d service_hit_allocations=%llu "
                 "service_miss_allocations=%llu (max %llu) "
                 "exhaustive_match=%d\n",
                 bitwise, batched_bitwise, delta_bitwise, zero_alloc,
                 preflight_zero,
                 static_cast<unsigned long long>(service_hit_allocs),
                 static_cast<unsigned long long>(service_miss_allocs),
                 static_cast<unsigned long long>(kMaxServiceMissAllocations),
                 exhaustive_match);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  try {
    return netpart::run(netpart::bench::parse_bench_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_partition_hotpath: %s\n", e.what());
    return 1;
  }
}
