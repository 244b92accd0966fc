#include "apps/reduce.hpp"

#include "util/error.hpp"

namespace netpart::apps {

ComputationSpec make_reduce_spec(const ReduceConfig& config) {
  NP_REQUIRE(config.count >= 2, "need at least two values");
  const std::int64_t count = config.count;

  ComputationPhaseSpec local;
  local.name = "local-sum";
  local.num_pdus = [count] { return count; };
  local.ops_per_pdu = [] { return 1.0; };  // one add per value
  local.op_kind = OpKind::FloatingPoint;

  CommunicationPhaseSpec combine;
  combine.name = "combine";
  combine.topology = [] { return Topology::Tree; };
  combine.bytes_per_message = [](std::int64_t) {
    return std::int64_t{8};  // one double partial
  };

  return ComputationSpec("reduce", {local}, {combine}, config.iterations);
}

}  // namespace netpart::apps
