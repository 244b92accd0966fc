#include "apps/catalog.hpp"

#include <string>

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/reduce.hpp"
#include "apps/stencil.hpp"
#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec spec_by_name(std::string_view name, int n, int iterations) {
  if (name == "stencil" || name == "sten2") {
    return make_stencil_spec(StencilConfig{
        .n = n, .iterations = iterations, .overlap = name == "sten2"});
  }
  if (name == "gauss") {
    return make_gauss_spec(GaussConfig{.n = n});
  }
  if (name == "particles") {
    return make_particle_spec(
        ParticleConfig{.count = n, .iterations = iterations});
  }
  if (name == "reduce") {
    return make_reduce_spec(
        ReduceConfig{.count = n, .iterations = iterations});
  }
  throw InvalidArgument("unknown app: " + std::string(name));
}

}  // namespace netpart::apps
