// Heap-allocation counting for the zero-allocation tests.
//
// Linking alloc_count.cpp into a test binary replaces the global operator
// new and delete for that binary only: every allocation bumps one relaxed
// counter.  gtest allocates freely, so a test asserts on the delta across
// the region it measures.  The replacements sit in their own translation
// unit, so the compiler never inlines them into the code under test.
#pragma once

#include <cstdint>

namespace netpart {

/// Heap allocations this binary has made so far.
std::uint64_t heap_allocations();

}  // namespace netpart
