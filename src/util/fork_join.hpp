// Fork/join over a fixed number of workers.
//
// The exhaustive partition sweep and calibration both split independent
// work across threads that claim it from one atomic cursor, then merge the
// per-worker results on the calling thread in a fixed order.  fork_join
// is the spawn/join half they share: worker 0 runs on the calling thread
// (which would otherwise only wait), workers 1..n-1 on fresh threads, and
// the call returns once every worker has finished.
//
// The npracer fork/join edges (DESIGN.md §14) are recorded here, on
// `token`: a spawned worker's writes are ordered before the caller's reads
// after the join only through fork -> start ... end -> join.
//
// Header-only, so the annotations compile into the (race-instrumented)
// libraries that call it.
#pragma once

#include <thread>
#include <vector>

#include "analysis/race/annotations.hpp"

namespace netpart {

/// Run body(w) for w in [0, workers): worker 0 on the calling thread, the
/// rest on their own threads.  A spawned worker's body must not throw;
/// each caller records its workers' errors in its own result slots and
/// merges them after the join.  If a spawn fails or body(0) throws, the
/// workers already spawned are joined before the exception propagates.
template <typename Body>
void fork_join(int workers, [[maybe_unused]] const void* token,
               [[maybe_unused]] const char* name, Body&& body) {
  std::vector<std::thread> pool;
  if (workers > 1) pool.reserve(static_cast<std::size_t>(workers - 1));
  NP_THREAD_FORK(token, name);
  try {
    for (int w = 1; w < workers; ++w) {
      pool.emplace_back([&body, w, token, name] {
        NP_THREAD_START(token, name);
        body(w);
        NP_THREAD_END(token, name);
      });
    }
    body(0);
  } catch (...) {
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  NP_THREAD_JOIN(token, name);
}

}  // namespace netpart
