// The partition service's canonical request and cache key.
//
// A request is pure data -- no callbacks, no pointers -- so that two
// clients asking the same question produce byte-identical requests, and so
// the cache key can be derived deterministically (util/hash FNV-1a over an
// explicit little-endian field serialisation).  The key also folds in
//   * the network signature: a fingerprint of the immutable network
//     description, so decisions for different networks never collide, and
//   * the availability epoch: the pool of partitionable processors at the
//     time of admission; an epoch bump makes every older key unreachable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "net/network.hpp"

namespace netpart::svc {

struct PartitionRequest {
  enum class Kind : std::uint8_t {
    /// Full partition: resolve `spec` into a ComputationSpec, estimate, run
    /// the Section 5 heuristic.  Answers "how should this program start?".
    Partition = 0,
    /// Eq. 3 re-decomposition from observed per-rank rates (quantised to
    /// `rate_milli`).  Answers a running program's "how should this
    /// program rebalance?"; recurring imbalance patterns hit the cache.
    Repartition = 1,
  };

  Kind kind = Kind::Partition;
  /// Spec-factory name for Partition requests ("stencil", "gauss", ...);
  /// a free-form job label for Repartition requests.
  std::string spec;
  /// Problem size: PDU count the decomposition must distribute.
  std::int64_t n = 0;
  std::int32_t iterations = 1;
  /// Repartition only: observed per-rank rates normalised so the fastest
  /// rank reads 1000; entries must be >= 1.
  std::vector<std::int32_t> rate_milli;
  PartitionOptions options;
};

/// Fingerprint of everything immutable the cost model and partitioner see:
/// cluster names/sizes/machine models, segment parameters, router links.
/// Dynamic per-processor load is deliberately excluded -- that is the
/// availability epoch's job.
std::uint64_t network_signature(const Network& net);

/// The deterministic cache key.  Reproducible across platforms (endian- and
/// width-stable); tested against golden values.
std::uint64_t request_key(const PartitionRequest& request,
                          std::uint64_t network_signature,
                          std::uint64_t epoch);

}  // namespace netpart::svc
