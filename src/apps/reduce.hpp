// Parallel global reduction over the tree topology.
//
// A classic data parallel primitive (the related-work systems of Reeves et
// al. specialised in exactly these): each task reduces its block of values
// locally, then partial sums combine up a binary tree to rank 0.  The PDU
// is one value; communication is one 8-byte partial per tree edge per
// cycle; iterations model repeated reductions (e.g. convergence tests in an
// outer solver loop).
//
// Exercises the Tree topology through calibration, estimation and the
// annotation-level executor.
#pragma once

#include <cstdint>

#include "dp/phases.hpp"

namespace netpart::apps {

struct ReduceConfig {
  std::int64_t count = 100000;  ///< values to reduce
  int iterations = 20;          ///< repeated reductions
};

/// Annotated computation for the partitioner and executor.
ComputationSpec make_reduce_spec(const ReduceConfig& config);

}  // namespace netpart::apps
