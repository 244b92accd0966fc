#include "topo/topology.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace netpart {

std::string to_string(Topology t) {
  switch (t) {
    case Topology::OneD:
      return "1-D";
    case Topology::Ring:
      return "ring";
    case Topology::TwoD:
      return "2-D";
    case Topology::Tree:
      return "tree";
    case Topology::Broadcast:
      return "broadcast";
  }
  throw LogicError("unknown topology");
}

Topology topology_from_string(std::string_view name) {
  const std::string n = to_lower(name);
  if (n == "1-d" || n == "1d" || n == "chain") return Topology::OneD;
  if (n == "ring") return Topology::Ring;
  if (n == "2-d" || n == "2d" || n == "mesh") return Topology::TwoD;
  if (n == "tree") return Topology::Tree;
  if (n == "broadcast" || n == "bcast") return Topology::Broadcast;
  throw InvalidArgument("unknown topology: " + std::string(name));
}

const std::vector<Topology>& all_topologies() {
  static const std::vector<Topology> kAll = {
      Topology::OneD, Topology::Ring, Topology::TwoD, Topology::Tree,
      Topology::Broadcast};
  return kAll;
}

bool is_bandwidth_limited(Topology t) { return t == Topology::Broadcast; }

std::pair<int, int> mesh_shape(int p) {
  NP_REQUIRE(p >= 1, "mesh needs at least one rank");
  int rows = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (rows > 1 && p % rows != 0) --rows;
  // For prime p this degenerates to 1 x p, which matches how mesh codes
  // fall back to a strip decomposition.
  return {rows, p / rows};
}

namespace {

/// Calls emit(n) for each rank `rank` sends to, in neighbour order.  `cols`
/// is mesh_shape(p).second, which only the TwoD pattern reads; taking it
/// from the caller lets a whole cycle share one mesh_shape call.
template <typename Emit>
void visit_send_neighbors(Topology t, GlobalRank rank, int p, int cols,
                          Emit emit) {
  if (p == 1) return;
  switch (t) {
    case Topology::OneD:
      if (rank > 0) emit(rank - 1);
      if (rank < p - 1) emit(rank + 1);
      break;
    case Topology::Ring:
      emit((rank + 1) % p);
      break;
    case Topology::TwoD: {
      const int rows = p / cols;
      const int r = rank / cols;
      const int c = rank % cols;
      if (r > 0) emit(rank - cols);
      if (r < rows - 1) emit(rank + cols);
      if (c > 0) emit(rank - 1);
      if (c < cols - 1) emit(rank + 1);
      break;
    }
    case Topology::Tree: {
      // Binary heap layout: parent (rank-1)/2, children 2r+1, 2r+2.
      if (rank > 0) emit((rank - 1) / 2);
      const GlobalRank left = 2 * rank + 1;
      const GlobalRank right = 2 * rank + 2;
      if (left < p) emit(left);
      if (right < p) emit(right);
      break;
    }
    case Topology::Broadcast:
      if (rank == 0) {
        for (GlobalRank r = 1; r < p; ++r) emit(r);
      }
      break;
  }
}

/// Calls emit(from, to) for each directed message of one cycle, in
/// cycle_messages order (none when p < 1).
template <typename Emit>
void visit_cycle_messages(Topology t, int p, Emit emit) {
  if (p < 1) return;
  const int cols = mesh_shape(p).second;
  for (GlobalRank r = 0; r < p; ++r) {
    visit_send_neighbors(t, r, p, cols, [&](GlobalRank n) { emit(r, n); });
  }
}

}  // namespace

std::vector<GlobalRank> send_neighbors(Topology t, GlobalRank rank, int p) {
  NP_REQUIRE(p >= 1, "need at least one rank");
  NP_REQUIRE(rank >= 0 && rank < p, "rank out of range");
  std::vector<GlobalRank> out;
  visit_send_neighbors(t, rank, p, mesh_shape(p).second,
                       [&](GlobalRank n) { out.push_back(n); });
  return out;
}

std::vector<GlobalRank> recv_neighbors(Topology t, GlobalRank rank, int p) {
  NP_REQUIRE(p >= 1, "need at least one rank");
  NP_REQUIRE(rank >= 0 && rank < p, "rank out of range");
  std::vector<GlobalRank> out;
  if (p == 1) return out;
  switch (t) {
    case Topology::OneD:
    case Topology::TwoD:
    case Topology::Tree:
      // Symmetric patterns: receive from everyone we send to.
      return send_neighbors(t, rank, p);
    case Topology::Ring:
      out.push_back((rank + p - 1) % p);
      break;
    case Topology::Broadcast:
      if (rank != 0) out.push_back(0);
      break;
  }
  return out;
}

std::vector<std::pair<GlobalRank, GlobalRank>> cycle_messages(Topology t,
                                                              int p) {
  std::vector<std::pair<GlobalRank, GlobalRank>> out;
  out.reserve(static_cast<std::size_t>(messages_per_cycle(t, p)));
  visit_cycle_messages(t, p, [&](GlobalRank from, GlobalRank to) {
    out.emplace_back(from, to);
  });
  return out;
}

std::int64_t messages_per_cycle(Topology t, int p) {
  std::int64_t total = 0;
  visit_cycle_messages(t, p, [&](GlobalRank, GlobalRank) { ++total; });
  return total;
}

}  // namespace netpart
