#include "sim/channel.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace netpart::sim {

Channel::Channel(double bandwidth_bps, SimTime frame_overhead)
    : frame_overhead_(frame_overhead) {
  NP_REQUIRE(bandwidth_bps > 0, "bandwidth must be positive");
  // bits/sec -> ns/byte.
  byte_time_ = SimTime::nanos(
      static_cast<std::int64_t>(8.0 * 1e9 / bandwidth_bps + 0.5));
}

ChannelGrant Channel::reserve(SimTime ready_at, SimTime occupancy) {
  NP_REQUIRE(occupancy >= SimTime::zero(), "occupancy must be non-negative");
  if (degradation_ != 1.0) occupancy = occupancy * degradation_;
  ChannelGrant grant;
  grant.start = std::max(ready_at, busy_until_);
  grant.end = grant.start + occupancy;
  busy_until_ = grant.end;
  total_busy_ += occupancy;
  return grant;
}

void Channel::set_degradation(double factor) {
  NP_REQUIRE(factor >= 1.0, "degradation factor must be >= 1");
  degradation_ = factor;
}

}  // namespace netpart::sim
