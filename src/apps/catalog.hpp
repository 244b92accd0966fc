// The applications by name, for front ends that pick one from a string
// (netpartd's request mix, netpart_cli's app=).
#pragma once

#include <string_view>

#include "dp/phases.hpp"

namespace netpart::apps {

/// The annotated spec of `name` -- stencil (STEN-1), sten2 (STEN-2),
/// gauss, particles or reduce -- at problem size `n` over `iterations`
/// cycles (gauss always runs n cycles).  Any other name throws
/// InvalidArgument.
ComputationSpec spec_by_name(std::string_view name, int n, int iterations);

}  // namespace netpart::apps
