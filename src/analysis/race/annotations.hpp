// npracer annotation macros (see DESIGN.md §14).
//
// The service, fleet, and hot-path layers are exactly where a silent data
// race or a lock-order inversion corrupts partition decisions without
// failing a test.  TSan only observes the interleavings one run happens to
// schedule; these macros instead *declare* the concurrency structure --
// which state is shared, which lock guards it, where happens-before edges
// are created -- so the npracer detector can check every recorded run
// deterministically, including on the single-vCPU CI host where thread
// interleavings are nearly serial.
//
// Vocabulary (all statements; every macro is free to appear in hot paths):
//
//   NP_READ(addr, "name")            annotated read of shared state
//   NP_WRITE(addr, "name")           annotated write of shared state
//   NP_LOCK_SCOPE(addr, "name")      RAII: acquire now, release at scope end
//   NP_LOCK_ACQUIRE(addr, "name")    explicit acquire (non-scoped locks)
//   NP_LOCK_RELEASE(addr, "name")    explicit release
//   NP_ATOMIC_ACQUIRE(addr, "name")  acquire-load observing `addr`
//   NP_ATOMIC_RELEASE(addr, "name")  release-store publishing via `addr`
//   NP_ATOMIC_RMW(addr, "name")      read-modify-write (acq+rel combined)
//   NP_GUARDED_BY(addr, lock, "name")declare: `addr` is guarded by `lock`
//   NP_BENIGN_RACE(addr, "name", "why") declare: races on `addr` are
//                                    intentional (e.g. relaxed counters)
//   NP_THREAD_FORK(token, "name")    parent, before spawning worker(s)
//   NP_THREAD_START(token, "name")   child, first statement
//   NP_THREAD_END(token, "name")     child, last statement
//   NP_THREAD_JOIN(token, "name")    parent, after join()
//
// Placement of the atomic edges: NP_ATOMIC_RELEASE goes before the store
// it describes, NP_ATOMIC_ACQUIRE after the load.  The recorder orders
// events as they are recorded, so an acquire recorded before its load can
// land ahead of the release that load observed; the recording then holds
// no acquire after that release, and the reads it published show up as
// races (NP-R002).
//
// Cost discipline: the macros compile to NOTHING unless the build sets
// NETPART_RACE_RUNTIME (the `race` CMake preset; see tier1.sh --race).
// The shipped release/strict/bench builds therefore carry zero overhead --
// tests/race_macros_off_test.cpp proves the expansion is constexpr-empty
// and allocation-free.  Even in the race build, an unarmed recorder costs
// one relaxed atomic load per annotation.
#pragma once

#ifndef NETPART_RACE_RUNTIME
#define NETPART_RACE_RUNTIME 0
#endif

// A TU can force the compiled-out expansion (tests of the no-op contract
// define this before including; the library never does).
#if NETPART_RACE_RUNTIME && !defined(NETPART_RACE_FORCE_OFF)
#define NP_RACE_ACTIVE 1
#else
#define NP_RACE_ACTIVE 0
#endif

#if NP_RACE_ACTIVE

#include "analysis/race/recorder.hpp"

#define NP_RACE_DETAIL_CAT2_(a, b) a##b
#define NP_RACE_DETAIL_CAT_(a, b) NP_RACE_DETAIL_CAT2_(a, b)

#define NP_RACE_DETAIL_EVENT_(kind, addr, aux, name, detail)               \
  do {                                                                     \
    if (::netpart::analysis::race::RaceRecorder::armed()) {                \
      ::netpart::analysis::race::RaceRecorder::instance().on_event(        \
          ::netpart::analysis::race::EventKind::kind, (addr), (aux),       \
          (name), (detail), __FILE__, __LINE__);                           \
    }                                                                      \
  } while (0)

#define NP_READ(addr, name) \
  NP_RACE_DETAIL_EVENT_(kRead, addr, nullptr, name, nullptr)
#define NP_WRITE(addr, name) \
  NP_RACE_DETAIL_EVENT_(kWrite, addr, nullptr, name, nullptr)
#define NP_LOCK_ACQUIRE(addr, name) \
  NP_RACE_DETAIL_EVENT_(kLockAcquire, addr, nullptr, name, nullptr)
#define NP_LOCK_RELEASE(addr, name) \
  NP_RACE_DETAIL_EVENT_(kLockRelease, addr, nullptr, name, nullptr)
#define NP_ATOMIC_ACQUIRE(addr, name) \
  NP_RACE_DETAIL_EVENT_(kAtomicAcquire, addr, nullptr, name, nullptr)
#define NP_ATOMIC_RELEASE(addr, name) \
  NP_RACE_DETAIL_EVENT_(kAtomicRelease, addr, nullptr, name, nullptr)
#define NP_ATOMIC_RMW(addr, name) \
  NP_RACE_DETAIL_EVENT_(kAtomicRmw, addr, nullptr, name, nullptr)
#define NP_GUARDED_BY(addr, lock, name) \
  NP_RACE_DETAIL_EVENT_(kGuardedBy, addr, lock, name, nullptr)
#define NP_BENIGN_RACE(addr, name, reason) \
  NP_RACE_DETAIL_EVENT_(kBenignRace, addr, nullptr, name, reason)
#define NP_THREAD_FORK(token, name) \
  NP_RACE_DETAIL_EVENT_(kThreadFork, token, nullptr, name, nullptr)
#define NP_THREAD_START(token, name) \
  NP_RACE_DETAIL_EVENT_(kThreadStart, token, nullptr, name, nullptr)
#define NP_THREAD_END(token, name) \
  NP_RACE_DETAIL_EVENT_(kThreadEnd, token, nullptr, name, nullptr)
#define NP_THREAD_JOIN(token, name) \
  NP_RACE_DETAIL_EVENT_(kThreadJoin, token, nullptr, name, nullptr)

// RAII acquire/release around the statement's enclosing scope.  Place it
// immediately after the std::lock_guard/unique_lock it mirrors: this
// object destructs *before* the guard (reverse construction order), so the
// release event is emitted while the real mutex is still held and the
// recorded event order matches the real one.
#define NP_LOCK_SCOPE(addr, name)                         \
  ::netpart::analysis::race::LockScope NP_RACE_DETAIL_CAT_( \
      np_race_lock_scope_, __LINE__)((addr), (name), __FILE__, __LINE__)

#else  // !NP_RACE_ACTIVE

#define NP_READ(addr, name) static_cast<void>(0)
#define NP_WRITE(addr, name) static_cast<void>(0)
#define NP_LOCK_ACQUIRE(addr, name) static_cast<void>(0)
#define NP_LOCK_RELEASE(addr, name) static_cast<void>(0)
#define NP_LOCK_SCOPE(addr, name) static_cast<void>(0)
#define NP_ATOMIC_ACQUIRE(addr, name) static_cast<void>(0)
#define NP_ATOMIC_RELEASE(addr, name) static_cast<void>(0)
#define NP_ATOMIC_RMW(addr, name) static_cast<void>(0)
#define NP_GUARDED_BY(addr, lock, name) static_cast<void>(0)
#define NP_BENIGN_RACE(addr, name, reason) static_cast<void>(0)
#define NP_THREAD_FORK(token, name) static_cast<void>(0)
#define NP_THREAD_START(token, name) static_cast<void>(0)
#define NP_THREAD_END(token, name) static_cast<void>(0)
#define NP_THREAD_JOIN(token, name) static_cast<void>(0)

#endif  // NP_RACE_ACTIVE
