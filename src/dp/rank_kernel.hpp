// Kernels for the largest-remainder rounding of Eq. 3.
//
// proportional_partition() realises the ideal (fractional) Eq. 3 shares as
// integers by handing the leftover PDUs to the ranks with the largest
// fractional parts, stable on ties.  Everything the estimator's closed form
// needs from that sort is one number per group: how many ranks precede the
// group in the frac-descending order ("ranks_before") -- the remainder is
// then compared against it to decide whether the group receives an extra.
// The closed form has one home, CycleEstimator's Stage B2 kernel
// (lane_extras), which every fast path runs; the share divisions before it
// (B1) are plain IEEE division, the exact `/` proportional_partition()
// performs per rank.
//
// Two implementations of that count, bitwise-identical by construction
// (both implement the same exact-double comparisons; the differential tier
// in tests/property_test.cpp asserts equality over every tie pattern):
//
//   * largest_remainder_ranks() -- the hot entry point.  For <= 4 groups
//     (every paper testbed, and the 4-cluster bench preset) it sorts the
//     (frac, index) keys through a 5-comparator sorting network written as
//     predicated swaps.  The source has no branch, but the object code
//     does: in the Release build (GCC 12.2, -O3) the network's fraction
//     compares inside CycleEstimator::run_lanes are `comisd` followed
//     by `ja`/`jbe` (objdump -d of estimator.cpp.o), so a mistrained
//     predictor can still cost here.  The network replaced the old
//     quadratic compare loop, the dominant term of the batched per-eval
//     profile then.  Above 4 groups it falls back to the quadratic pass.
//   * detail::largest_remainder_ranks_general() -- the O(G^2) pass in
//     |/& arithmetic, kept as the any-size fallback and as the
//     differential oracle.  Its compares do compile to `setcc`/`cmov`.
#pragma once

#include <cstdint>

namespace netpart {

namespace detail {

/// ranks_before[g] = sum of sizes[h] over groups h that precede g in the
/// stable frac-descending order: frac[h] > frac[g], or frac[h] == frac[g]
/// with h < g.  Branch-free |/& arithmetic -- the fraction comparisons are
/// data-dependent coin flips, and short-circuit evaluation would plant an
/// unpredictable branch in the hottest loop of the engine.  Quadratic in
/// the group count; any size.
inline void largest_remainder_ranks_general(const double* frac,
                                            const int* sizes, int groups,
                                            std::int64_t* ranks_before) {
  for (int g = 0; g < groups; ++g) {
    const double fg = frac[g];
    std::int64_t before = 0;
    for (int h = 0; h < groups; ++h) {
      // At h == g both clauses are false, so the self-term contributes
      // nothing and needs no explicit skip.
      const double fh = frac[h];
      const auto ahead = static_cast<std::int64_t>(fh > fg) |
                         (static_cast<std::int64_t>(fh == fg) &
                          static_cast<std::int64_t>(h < g));
      before += ahead * sizes[h];
    }
    ranks_before[g] = before;
  }
}

}  // namespace detail

/// Largest-remainder rank counts (see file comment).  Preconditions:
/// groups >= 1, sizes[g] >= 0, and frac[g] in [0, 1) -- the fractional
/// part of a finite non-negative ideal share, which is what Stage B1
/// computes.  Writes exactly `groups` entries of ranks_before.
inline void largest_remainder_ranks(const double* frac, const int* sizes,
                                    int groups,
                                    std::int64_t* ranks_before) {
  if (groups > 4) {
    detail::largest_remainder_ranks_general(frac, sizes, groups,
                                            ranks_before);
    return;
  }
  // Pad to a fixed 4 lanes.  The sentinel frac -1.0 is strictly below
  // every real fractional part (they live in [0, 1)), so dead lanes sort
  // last; their size 0 keeps them out of every prefix sum.
  double f[4];
  int idx[4];
  std::int64_t p[4];
  for (int g = 0; g < 4; ++g) {
    const bool live = g < groups;
    f[g] = live ? frac[g] : -1.0;
    idx[g] = g;
    p[g] = live ? static_cast<std::int64_t>(sizes[g]) : 0;
  }
  // 5-comparator sorting network for 4 keys: (0,1)(2,3)(0,2)(1,3)(1,2).
  // Order: frac descending, index ascending on equal fracs -- exactly the
  // stable sort proportional_partition performs.  Keys are unique (the
  // index breaks every tie), so the network's output order is the stable
  // order even though the network itself is not stable.  Each comparator
  // is written as a predicated swap; GCC 12.2 nevertheless compiles the
  // fraction compare to a conditional branch (see the file comment).
  const auto cswap = [&](int a, int b) {
    const bool sw = (f[a] < f[b]) | ((f[a] == f[b]) & (idx[a] > idx[b]));
    const double fa = sw ? f[b] : f[a];
    const double fb = sw ? f[a] : f[b];
    const int ia = sw ? idx[b] : idx[a];
    const int ib = sw ? idx[a] : idx[b];
    const std::int64_t pa = sw ? p[b] : p[a];
    const std::int64_t pb = sw ? p[a] : p[b];
    f[a] = fa;
    f[b] = fb;
    idx[a] = ia;
    idx[b] = ib;
    p[a] = pa;
    p[b] = pb;
  };
  cswap(0, 1);
  cswap(2, 3);
  cswap(0, 2);
  cswap(1, 3);
  cswap(1, 2);
  // Exclusive prefix sum over the sorted sizes, scattered back to input
  // order.  Dead lanes land in out[idx >= groups], which exists only in
  // the local staging -- callers get exactly `groups` entries.
  std::int64_t out[4];
  std::int64_t before = 0;
  for (int k = 0; k < 4; ++k) {
    out[idx[k]] = before;
    before += p[k];
  }
  for (int g = 0; g < groups; ++g) ranks_before[g] = out[g];
}

}  // namespace netpart
