// Compile-out contract for the npracer annotation macros (DESIGN.md §14).
//
// This TU defines NETPART_RACE_FORCE_OFF before including annotations.hpp,
// so even inside the instrumented `race` build every macro must expand to
// the compiled-out form.  Two properties are pinned:
//
//   1. constexpr-empty: the expansion is a plain discarded expression, so
//      a constexpr function stuffed with annotations still evaluates at
//      compile time (static_assert below -- a build failure, not a test
//      failure, if the contract breaks);
//   2. allocation-free at runtime: executing every macro in a tight loop
//      performs zero heap allocations (operator new is counted).
//
// tier1.sh --race runs this binary from build-race/ deliberately: the
// force-off override must win even when NETPART_RACE_RUNTIME=1.
#define NETPART_RACE_FORCE_OFF 1

#include "analysis/race/annotations.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>

#include "alloc_count.hpp"

static_assert(NP_RACE_ACTIVE == 0,
              "NETPART_RACE_FORCE_OFF must force the compiled-out "
              "expansion regardless of NETPART_RACE_RUNTIME");

namespace {

// Every macro in the vocabulary, inside a constexpr function.  If any
// expansion touches the recorder (or anything else not usable in constant
// evaluation), this fails to compile.
constexpr int constexpr_probe() {
  int x = 40;
  NP_READ(&x, "probe.x");
  NP_WRITE(&x, "probe.x");
  NP_LOCK_ACQUIRE(&x, "probe.lock");
  NP_LOCK_RELEASE(&x, "probe.lock");
  NP_LOCK_SCOPE(&x, "probe.lock");
  NP_ATOMIC_ACQUIRE(&x, "probe.flag");
  NP_ATOMIC_RELEASE(&x, "probe.flag");
  NP_ATOMIC_RMW(&x, "probe.flag");
  NP_GUARDED_BY(&x, &x, "probe.guarded");
  NP_BENIGN_RACE(&x, "probe.benign", "constexpr probe");
  NP_THREAD_FORK(&x, "probe.pool");
  NP_THREAD_START(&x, "probe.pool");
  NP_THREAD_END(&x, "probe.pool");
  NP_THREAD_JOIN(&x, "probe.pool");
  return x + 2;
}

static_assert(constexpr_probe() == 42,
              "compiled-out annotation macros must be constexpr-empty");

TEST(RaceMacrosOffTest, ActiveFlagIsForcedOff) {
  EXPECT_EQ(NP_RACE_ACTIVE, 0);
}

TEST(RaceMacrosOffTest, MacrosAllocateNothing) {
  int shared = 0;
  std::mutex mutex;
  const std::uint64_t before = netpart::heap_allocations();
  for (int i = 0; i < 10000; ++i) {
    NP_GUARDED_BY(&shared, &mutex, "off.guarded");
    NP_LOCK_ACQUIRE(&mutex, "off.mutex");
    NP_READ(&shared, "off.shared");
    NP_WRITE(&shared, "off.shared");
    shared += i;
    NP_LOCK_RELEASE(&mutex, "off.mutex");
    NP_LOCK_SCOPE(&mutex, "off.mutex");
    NP_ATOMIC_ACQUIRE(&shared, "off.flag");
    NP_ATOMIC_RELEASE(&shared, "off.flag");
    NP_ATOMIC_RMW(&shared, "off.flag");
    NP_BENIGN_RACE(&shared, "off.benign", "macros-off loop");
    NP_THREAD_FORK(&shared, "off.pool");
    NP_THREAD_START(&shared, "off.pool");
    NP_THREAD_END(&shared, "off.pool");
    NP_THREAD_JOIN(&shared, "off.pool");
  }
  const std::uint64_t after = netpart::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(shared, 0);  // keep the loop observable
}

TEST(RaceMacrosOffTest, MacrosDiscardSideEffectFreeOperands) {
  // The compiled-out form must still swallow arbitrary address expressions
  // without evaluating surprises at runtime: operands are textually
  // discarded, so an annotation never perturbs control flow.
  int value = 7;
  NP_READ(&value, "off.value");
  NP_WRITE(&value, "off.value");
  EXPECT_EQ(value, 7);
}

}  // namespace
