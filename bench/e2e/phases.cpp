// Closed- and open-loop load phases.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <unordered_map>

#include "e2e.hpp"

namespace netpart::e2e {

namespace {

/// The open-loop generator sleeps until this close to a due time, then
/// spins: a timer wake-up is too coarse to place sends to the microsecond.
constexpr auto kSpinAhead = std::chrono::microseconds(20);

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

void sleep_until(Clock::time_point t) {
  const auto ns = t.time_since_epoch().count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  // steady_clock is CLOCK_MONOTONIC on Linux/libstdc++.
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Per-thread results, merged once the threads are joined.
struct ThreadStats {
  LogHistogram latency;
  LogHistogram lag;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  void completed(std::uint64_t ns) {
    ++ok;
    latency.record(ns);
  }
};

template <typename Body>
PhaseStats run_threads(int n, double seconds, const Body& body) {
  std::vector<std::unique_ptr<ThreadStats>> stats;
  for (int c = 0; c < n; ++c) stats.push_back(std::make_unique<ThreadStats>());
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        sleep_until(start);
        body(c, start, end, *stats[static_cast<std::size_t>(c)]);
      });
    }
  }
  PhaseStats out;
  out.wall_s = seconds_between(start, Clock::now());
  out.cpu_s = process_cpu_s() - cpu0;
  for (const auto& s : stats) {
    out.latency.merge(s->latency);
    out.lag.merge(s->lag);
    out.ok += s->ok;
    out.failed += s->failed;
  }
  return out;
}

}  // namespace

void PhaseStats::append(const PhaseStats& other) {
  latency.merge(other.latency);
  lag.merge(other.lag);
  ok += other.ok;
  failed += other.failed;
  wall_s += other.wall_s;
  cpu_s += other.cpu_s;
}

PhaseStats run_closed(int clients, double seconds, const StepFn& step,
                      const std::function<bool()>& stop) {
  return run_threads(clients, seconds, [&](int c, Clock::time_point,
                                            Clock::time_point end,
                                            ThreadStats& s) {
    std::vector<Outcome> done;
    done.reserve(64);
    const auto take = [&] {
      const Clock::time_point t = Clock::now();
      for (const Outcome& o : done) {
        if (o.ok) {
          s.completed(ns_between(o.sent, t));
        } else {
          ++s.failed;
        }
      }
      done.clear();
      return t;
    };
    for (std::uint64_t i = 1; take() < end; ++i) {
      step(c, false, done);
      if (stop && i % 1024 == 0 && stop()) break;
    }
    step(c, true, done);
    take();
  });
}

PhaseStats run_closed(int clients, double seconds, const OpFn& op,
                      const std::function<bool()>& stop) {
  return run_closed(
      clients, seconds,
      [&op](int c, bool drain, std::vector<Outcome>& done) {
        if (drain) return;
        const Clock::time_point sent = Clock::now();
        done.push_back({sent, op(c)});
      },
      stop);
}

PhaseStats run_open(int n, double seconds, double rate, const OpFn& op) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(n) / rate));
  return run_threads(n, seconds, [&](int c, Clock::time_point start,
                                     Clock::time_point end, ThreadStats& s) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    // Clients interleave: client c's schedule is offset by c/n of a period.
    Clock::time_point due = start + period * c / n;
    for (; due < end; due += period) {
      if (Clock::now() < due - kSpinAhead) sleep_until(due - kSpinAhead);
      Clock::time_point sent = Clock::now();
      while (sent < due) sent = Clock::now();
      const bool ok = op(c);
      const Clock::time_point done = Clock::now();
      s.lag.record(ns_between(due, sent));
      if (ok) {
        s.completed(ns_between(due, done));
      } else {
        ++s.failed;
      }
    }
  });
}

// --- host-speed probes ------------------------------------------------------

namespace {

volatile std::uint64_t probe_sink = 0;  // keeps the probes' work observable

template <typename Work>
double median_timing_us(const Work& work) {
  std::vector<double> us;
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    probe_sink = probe_sink + work();
    us.push_back(static_cast<double>(ns_between(t0, Clock::now())) / 1e3);
  }
  return median(std::move(us));
}

}  // namespace

double cache_probe_us() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(std::size_t{1} << 14);
    Rng rng(3);
    for (std::uint64_t& x : t) x = rng.next_u64();
    return t;
  }();
  return median_timing_us([] {
    std::uint64_t s = 0;
    for (int i = 0; i < 20000; ++i) {
      s = s * 6364136223846793005ULL + table[(s >> 20) & (table.size() - 1)];
    }
    return s;
  });
}

double alloc_probe_us() {
  return median_timing_us([] {
    std::uint64_t s = 0;
    for (std::uint64_t rep = 0; rep < 4; ++rep) {
      std::unordered_map<std::uint64_t, std::uint64_t> m;
      Rng rng(rep);
      for (std::uint64_t i = 0; i < 2000; ++i) m[rng.next_u64()] = i;
      for (const auto& [key, value] : m) s += value;
    }
    return s;
  });
}

}  // namespace netpart::e2e
