// Shared-medium channel model.
//
// An ethernet segment is modelled as a FIFO resource: transmissions
// serialise, so with p stations offering load the per-cycle channel time is
// linear in p -- exactly the contention behaviour the paper's Eq. 1 encodes
// with its c2*p and c4*b*p terms.  We deliberately do not model CSMA/CD
// backoff; under the paper's "lightly loaded network" measurement conditions
// serialisation is the dominant effect, and the cost-function *fit* is what
// the partitioner consumes.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace netpart::sim {

/// A reservation granted by the channel.
struct ChannelGrant {
  SimTime start;  ///< when the transmission begins on the wire
  SimTime end;    ///< when the channel becomes free again
};

class Channel {
 public:
  explicit Channel(double bandwidth_bps, SimTime frame_overhead);

  /// Reserve the channel for a transmission that is ready at `ready_at` and
  /// occupies the medium for `occupancy`.  The transmission starts when the
  /// channel frees up (FIFO order of reservation calls).
  ChannelGrant reserve(SimTime ready_at, SimTime occupancy);

  /// Per-byte wire time.
  SimTime byte_time() const { return byte_time_; }

  SimTime frame_overhead() const { return frame_overhead_; }

  /// Time at which the channel is next free.
  SimTime busy_until() const { return busy_until_; }

  /// Total busy time accumulated (utilisation accounting).
  SimTime total_busy() const { return total_busy_; }

  /// Fault state: a down (partitioned / flapping) segment still serialises
  /// transmission attempts but drops every fragment, so the reliable layer
  /// sees pure loss until the channel comes back.
  bool down() const { return down_; }
  void set_down(bool down) { down_ = down; }

  /// Bandwidth degradation (>= 1): reservations occupy the medium for
  /// `factor` times the nominal occupancy (effective bandwidth divided by
  /// `factor`), modelling a saturated or renegotiated segment.
  double degradation() const { return degradation_; }
  void set_degradation(double factor);

 private:
  SimTime byte_time_;
  SimTime frame_overhead_;
  SimTime busy_until_ = SimTime::zero();
  SimTime total_busy_ = SimTime::zero();
  bool down_ = false;
  double degradation_ = 1.0;
};

}  // namespace netpart::sim
