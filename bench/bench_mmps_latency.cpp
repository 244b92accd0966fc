// MMPS substrate micro-benchmark: per-message delivery-latency
// distributions on the simulated testbed, within and across clusters, with
// and without datagram loss.  Messages are issued one at a time (no
// pipelining), so the distribution shows pure path latency; the long
// retransmission tail under loss is the reason the paper's cost functions
// are "average case ... due to the large amount of non-determinism
// inherent in UDP-based communications".
#include <cstdio>
#include <functional>

#include "bench/common.hpp"
#include "mmps/system.hpp"
#include "obs/metrics.hpp"

namespace netpart {
namespace {

void measure(const char* title, ProcessorRef src, ProcessorRef dst,
             std::int64_t bytes, double loss) {
  const Network net = presets::paper_testbed();
  sim::Engine engine;
  sim::NetSimParams params;
  params.loss_rate = loss;
  params.rto = SimTime::millis(20);
  sim::NetSim netsim(engine, net, params, Rng(99));
  mmps::System mmps(netsim);

  constexpr int kMessages = 400;
  obs::LatencyHistogram latency;

  // Chain the messages: each send is issued when the previous delivery
  // completes, so every sample sees an idle channel.
  std::function<void(int)> send_next = [&](int i) {
    if (i == kMessages) return;
    const SimTime t0 = engine.now();
    mmps.send(src, dst, i, std::vector<std::byte>(
                               static_cast<std::size_t>(bytes)));
    mmps.recv(dst, src, i, [&, i, t0](mmps::Message) {
      latency.record((engine.now() - t0).as_micros());
      send_next(i + 1);
    });
  };
  send_next(0);
  engine.run();

  const obs::QuantileSummary q = latency.quantiles();
  std::printf("%s (%d messages of %lld bytes, loss %.0f%%)\n"
              "latency mean %.2f ms, min %.2f, %llu retransmissions\n"
              "  p50 %7.2f ms\n  p90 %7.2f ms\n  p99 %7.2f ms\n"
              "  max %7.2f ms\n\n",
              title, kMessages, static_cast<long long>(bytes), 100 * loss,
              latency.mean_us() / 1e3, latency.min_us() / 1e3,
              static_cast<unsigned long long>(netsim.retransmissions()),
              q.p50 / 1e3, q.p90 / 1e3, q.p99 / 1e3, latency.max_us() / 1e3);
}

}  // namespace
}  // namespace netpart

int main() {
  using namespace netpart;
  measure("intra-cluster (Sparc2 -> Sparc2)", ProcessorRef{0, 0},
          ProcessorRef{0, 1}, 2400, 0.0);
  measure("cross-router (Sparc2 -> IPC)", ProcessorRef{0, 0},
          ProcessorRef{1, 0}, 2400, 0.0);
  measure("cross-router under 10% loss", ProcessorRef{0, 0},
          ProcessorRef{1, 0}, 2400, 0.10);
  return 0;
}
