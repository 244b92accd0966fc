#include "fleet/driver.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace netpart::fleet {

svc::PartitionRequest workload_request(int key_index) {
  svc::PartitionRequest request;
  request.kind = svc::PartitionRequest::Kind::Partition;
  request.spec = "stencil";
  // Distinct problem sizes give distinct request keys (and thus distinct
  // ring positions) without varying anything else.
  request.n = 256 + key_index;
  request.iterations = 4;
  return request;
}

Fleet::ColdPath synthetic_cold_path(const Network& net) {
  const int clusters = net.num_clusters();
  return [clusters](const svc::PartitionRequest& request) {
    svc::PartitionDecision d;
    d.partition =
        PartitionVector(std::vector<std::int64_t>{std::max<std::int64_t>(
            request.n, 0)});
    d.config.assign(static_cast<std::size_t>(clusters), 0);
    d.config.front() = 1;
    d.placement = {ProcessorRef{0, 0}};
    d.t_c_ms = static_cast<double>(request.n) * 0.01 +
               static_cast<double>(request.iterations) * 0.1;
    d.evaluations = 1;
    return d;
  };
}

WorkloadResult run_workload(Fleet& fleet, const WorkloadOptions& options) {
  NP_REQUIRE(options.requests >= 1, "workload needs at least one request");
  NP_REQUIRE(options.distinct_keys >= 1,
             "workload needs at least one distinct key");
  sim::Engine& engine = fleet.net().engine();

  const ZipfSampler zipf(options.distinct_keys, options.zipf_s);
  Rng rng = Rng(options.seed).stream(/*salt=*/0x667765656c74);  // "fleet"
  WorkloadResult result;
  int completed = 0;
  double latency_sum_ms = 0.0;
  const SimTime t0 = engine.now();
  SimTime last_done = t0;
  const std::vector<NodeId> ids = fleet.node_ids();

  for (int k = 0; k < options.requests; ++k) {
    engine.schedule_after(options.arrival_period * k, [&, k] {
      // Round-robin entry over the nodes alive right now (a client whose
      // frontend died retries the next one).
      NodeId entry = -1;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const NodeId candidate =
            ids[(static_cast<std::size_t>(k) + i) % ids.size()];
        if (fleet.node_alive(candidate)) {
          entry = candidate;
          break;
        }
      }
      if (entry < 0) {
        ++result.failed;
        ++completed;
        return;
      }
      const svc::PartitionRequest request = workload_request(zipf.draw(rng));
      ++result.submitted;
      fleet.submit(request, entry, [&](const FleetReply& r) {
        ++completed;
        if (r.ok) {
          ++result.ok;
        } else {
          ++result.failed;
        }
        if (r.cache_hit) ++result.hit_replies;
        result.max_failovers = std::max(result.max_failovers, r.failovers);
        latency_sum_ms += r.latency.as_millis();
        result.max_latency_ms =
            std::max(result.max_latency_ms, r.latency.as_millis());
        last_done = std::max(last_done, engine.now());
      });
    });
  }

  while (completed < options.requests && engine.step()) {
  }

  result.elapsed = last_done - t0;
  const double seconds = result.elapsed.as_seconds();
  result.rps = seconds > 0.0 ? static_cast<double>(result.ok) / seconds : 0.0;
  result.mean_latency_ms =
      result.ok + result.failed > 0
          ? latency_sum_ms / static_cast<double>(result.ok + result.failed)
          : 0.0;
  return result;
}

}  // namespace netpart::fleet
