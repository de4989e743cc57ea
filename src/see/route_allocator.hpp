#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "see/feasibility.hpp"
#include "see/prepared.hpp"
#include "see/solution_ops.hpp"
#include "support/check.hpp"

/// The paper's configurable `no candidates action` (Section 3, Fig. 6):
/// when no cluster can take the current item directly — every candidate is
/// blocked by exhausted communication patterns — the Route Allocator tries
/// to assign the item anyway by routing the unreachable copies through
/// intermediate clusters. A relay cluster receives the value (one receive
/// slot of pressure) and re-sends it, consuming arc budget on both hops.
namespace hca::see {

/// Reusable route-allocator state for one search attempt: the BFS scratch
/// buffers (stamp-validated, so steady-state findPath calls allocate
/// nothing) and the count of hop-matrix fast rejects.
class RouteScratch {
 public:
  RouteScratch() = default;

  /// Sizes the buffers for the problem; cheap to call repeatedly.
  void init(const PreparedProblem& prepared) {
    const auto n =
        static_cast<std::size_t>(prepared.problem().pg->numNodes());
    if (parent_.size() != n) {
      parent_.assign(n, ClusterId::invalid());
      depth_.assign(n, 0);
      stamp_.assign(n, 0);
      curStamp_ = 0;
    }
  }

  /// findPath calls refused by the static hop matrix (folded into
  /// SeeStats::oracleRejects).
  [[nodiscard]] std::int64_t hopRejects() const { return hopRejects_; }
  void noteHopReject() { ++hopRejects_; }

  // --- BFS scratch (used by findPath) -----------------------------------
  void beginSearch() {
    if (++curStamp_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0U);
      curStamp_ = 1;
    }
    queue_.clear();
  }
  [[nodiscard]] bool seen(ClusterId c) const {
    return stamp_[c.index()] == curStamp_;
  }
  [[nodiscard]] int depthOf(ClusterId c) const { return depth_[c.index()]; }
  [[nodiscard]] ClusterId parentOf(ClusterId c) const {
    return parent_[c.index()];
  }
  void visit(ClusterId c, int depth, ClusterId from) {
    stamp_[c.index()] = curStamp_;
    depth_[c.index()] = depth;
    parent_[c.index()] = from;
  }
  std::vector<ClusterId>& queue() { return queue_; }

 private:
  std::vector<ClusterId> parent_;
  std::vector<int> depth_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t curStamp_ = 0;
  std::vector<ClusterId> queue_;
  std::int64_t hopRejects_ = 0;
};

/// BFS over cluster nodes: shortest relay path src -> dst for `value`,
/// where every hop respects the in-neighbor budgets in `solution`.
/// Returns the inclusive node path, empty when unreachable. With a
/// `scratch`, reuses its BFS buffers; the returned path is the same either
/// way.
inline std::vector<ClusterId> findPath(const PreparedProblem& prepared,
                                       const DeltaSolution& solution,
                                       ClusterId src, ClusterId dst,
                                       ValueId value, int maxHops,
                                       RouteScratch* scratch = nullptr) {
  const auto& pg = *prepared.problem().pg;
  const int maxPathNodes = maxHops + 2;  // src + relays + dst

  // Static fast-reject: the oracle's hop distance ignores every budget, so
  // a pair unreachable (or too deep) there cannot be routed by the BFS
  // below at any budget state.
  {
    const std::uint8_t d = prepared.oracle().hopDistance(src, dst);
    if (d == FeasibilityOracle::kUnreachable || d > maxPathNodes - 1) {
      if (scratch != nullptr) scratch->noteHopReject();
      return {};
    }
  }

  // The caller-less path materializes its scratch lazily; with a caller
  // scratch this costs nothing.
  std::optional<RouteScratch> local;
  RouteScratch& rs = scratch != nullptr ? *scratch : local.emplace();
  rs.init(prepared);
  rs.beginSearch();
  rs.visit(src, 0, ClusterId::invalid());
  rs.queue().push_back(src);
  for (std::size_t head = 0; head < rs.queue().size(); ++head) {
    const ClusterId u = rs.queue()[head];
    if (u == dst) break;
    if (rs.depthOf(u) + 1 >= maxPathNodes) continue;
    for (const PgArcId a : pg.outArcs(u)) {
      const ClusterId w = pg.arc(a).dst;
      if (rs.seen(w)) continue;
      // Only relay through (alive) cluster nodes; the destination may be
      // anything — canAddCopy refuses dead destinations itself.
      if (w != dst && (pg.node(w).kind != machine::PgNodeKind::kCluster ||
                       pg.node(w).dead)) {
        continue;
      }
      if (!canAddCopy(prepared, solution, u, w, value)) continue;
      rs.visit(w, rs.depthOf(u) + 1, u);
      rs.queue().push_back(w);
    }
  }
  if (!rs.seen(dst)) return {};
  std::vector<ClusterId> path;
  for (ClusterId v = dst; v.valid(); v = rs.parentOf(v)) {
    path.push_back(v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  HCA_CHECK(path.front() == src, "broken BFS parent chain");
  return path;
}

/// Routes the copies `item` needs at `cluster` into `sol`, then assigns.
/// Returns false (leaving `sol` partially modified — callers rebase the
/// delta) when some copy cannot be routed.
inline bool routeAndAssign(const PreparedProblem& prepared,
                           DeltaSolution& sol, const Item& item,
                           ClusterId cluster, int* routedOperands,
                           RouteScratch* scratch = nullptr) {
  const int maxHops = prepared.options().maxRouteHops;

  // Values that must reach `cluster` (operands of a node item; the source
  // value of a relay item).
  std::vector<ValueId> incoming;
  if (item.kind == Item::Kind::kNode) {
    incoming = prepared.operandValues(item.node);
  } else {
    incoming.push_back(item.value);
  }
  for (const ValueId v : incoming) {
    const ClusterId loc = valueLocation(prepared, sol, v);
    if (!loc.valid() || loc == cluster) continue;
    if (sol.valueDelivered(cluster, v)) continue;
    if (canAddCopy(prepared, sol, loc, cluster, v)) continue;  // direct ok
    const auto path =
        findPath(prepared, sol, loc, cluster, v, maxHops, scratch);
    if (path.empty()) return false;
    applyRoute(prepared, sol, v, path);
    if (routedOperands != nullptr) ++*routedOperands;
  }

  // Values produced here that must reach already-assigned consumers or a
  // (possibly already-fed) output wire.
  std::vector<std::pair<ValueId, ClusterId>> outgoing;
  if (item.kind == Item::Kind::kNode) {
    const ValueId produced(item.node.value());
    for (const DdgNodeId consumer : prepared.wsConsumers(item.node)) {
      const ClusterId d = sol.clusterOf(consumer);
      if (d.valid() && d != cluster) outgoing.emplace_back(produced, d);
    }
    const ClusterId out = prepared.outputNodeOf(produced);
    if (out.valid()) outgoing.emplace_back(produced, out);
  } else {
    outgoing.emplace_back(item.value, prepared.outputNodeOf(item.value));
  }
  for (const auto& [v, dst] : outgoing) {
    if (sol.valueDelivered(dst, v)) continue;
    if (canAddCopy(prepared, sol, cluster, dst, v)) continue;
    const auto path =
        findPath(prepared, sol, cluster, dst, v, maxHops, scratch);
    if (path.empty()) return false;
    applyRoute(prepared, sol, v, path);
    if (routedOperands != nullptr) ++*routedOperands;
  }

  if (!canAssign(prepared, sol, item, cluster)) return false;
  assign(prepared, sol, item, cluster);
  return true;
}

/// Group variant: places every member of the co-location group on
/// `cluster`, routing as needed. All-or-nothing from the caller's
/// perspective: on false, `sol` is partially modified and must be rebased.
inline bool routeAssignGroup(const PreparedProblem& prepared,
                             DeltaSolution& sol, const ItemGroup& group,
                             ClusterId cluster, int* routedOperands,
                             RouteScratch* scratch = nullptr) {
  const auto& pg = *prepared.problem().pg;
  if (pg.node(cluster).kind != machine::PgNodeKind::kCluster) {
    return false;
  }
  for (const Item& item : group.members) {
    if (canAssign(prepared, sol, item, cluster)) {
      assign(prepared, sol, item, cluster);
      continue;
    }
    if (!routeAndAssign(prepared, sol, item, cluster, routedOperands,
                         scratch)) {
      return false;
    }
  }
  return true;
}

}  // namespace hca::see
