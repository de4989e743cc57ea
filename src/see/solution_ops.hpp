#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "see/prepared.hpp"
#include "see/snapshot.hpp"
#include "support/check.hpp"

/// The SEE assignment semantics over the search state (snapshot.hpp):
/// isAssignable, assign, copy-budget checks and route application. Each
/// check reads a DeltaSolution — its dense overlay plus the parent
/// snapshot's shared lists — and each mutation records an addition in the
/// delta.
namespace hca::see {

namespace detail {
constexpr std::uint64_t pgBit(ClusterId c) { return 1ULL << c.index(); }

/// In-neighbor budget of one PG node: the level-wide MUX capacity, further
/// tightened by the node's surviving-wire override when the fabric carries
/// faults. -1 = unlimited.
inline int effectiveInCap(const machine::PgNode& node,
                          const machine::PgConstraints& constraints) {
  int cap = constraints.maxInNeighbors;
  if (node.inWireCap >= 0) {
    cap = cap < 0 ? node.inWireCap : std::min(cap, node.inWireCap);
  }
  return cap;
}
}  // namespace detail

/// Cluster currently holding `value` (producer's cluster, or the input
/// node it arrives on); invalid if not available yet.
inline ClusterId valueLocation(const PreparedProblem& prepared,
                               const DeltaSolution& sol, ValueId value) {
  const DdgNodeId producer(value.value());
  if (prepared.inWorkingSet(producer)) return sol.clusterOf(producer);
  return prepared.valueSource(value);
}

/// True when the arc src->dst exists and adding a copy of `value` on it
/// respects the in-neighbor budget (and unary fan-in for output nodes).
inline bool canAddCopy(const PreparedProblem& prepared,
                       const DeltaSolution& sol, ClusterId src, ClusterId dst,
                       ValueId value) {
  const auto& pg = *prepared.problem().pg;
  if (pg.node(src).dead || pg.node(dst).dead) return false;
  // A node whose output wires are all dead can send nothing new.
  if (pg.node(src).outWireCap == 0) return false;
  const auto arc = pg.arcBetween(src, dst);
  if (!arc.has_value()) return false;
  if (sol.flowContains(*arc, value)) {
    return true;  // already flowing: no budget change
  }
  const auto& constraints = prepared.problem().constraints;
  const std::uint64_t dstMask = sol.inNbrMask(dst);
  if (pg.node(dst).kind == machine::PgNodeKind::kOutput) {
    if (constraints.outputNodeUnaryFanIn) {
      return dstMask == 0 || dstMask == detail::pgBit(src);
    }
    return true;
  }
  if ((dstMask & detail::pgBit(src)) == 0) {
    const int inCap = detail::effectiveInCap(pg.node(dst), constraints);
    if (inCap >= 0 && __builtin_popcountll(dstMask) >= inCap) {
      return false;
    }
  }
  if (constraints.maxOutNeighbors >= 0 && !sol.flowIsReal(*arc)) {
    // Count distinct out-neighbors of src (dst is not one yet).
    int outNbrs = 0;
    for (const PgArcId a : pg.outArcs(src)) {
      if (sol.flowIsReal(a) && pg.arc(a).dst != dst) ++outNbrs;
    }
    if (outNbrs >= constraints.maxOutNeighbors) return false;
  }
  return true;
}

/// The paper's isAssignable interface: cluster kind, resource availability,
/// and availability of communication patterns under the current
/// reconfiguration budget.
inline bool canAssign(const PreparedProblem& prepared,
                      const DeltaSolution& sol, const Item& item,
                      ClusterId cluster) {
  const auto& pg = *prepared.problem().pg;
  if (pg.node(cluster).kind != machine::PgNodeKind::kCluster) return false;
  if (pg.node(cluster).dead) return false;
  const auto& rt = pg.node(cluster).resources;

  if (item.kind == Item::Kind::kRelay) {
    // A relay needs in/out communication patterns.
    const ClusterId source = prepared.valueSource(item.value);
    const ClusterId out = prepared.outputNodeOf(item.value);
    if (!sol.valueDelivered(cluster, item.value) &&
        !canAddCopy(prepared, sol, source, cluster, item.value)) {
      return false;
    }
    return sol.valueDelivered(out, item.value) ||
           canAddCopy(prepared, sol, cluster, out, item.value);
  }

  const DdgNodeId n = item.node;
  const ddg::Op op = prepared.problem().ddg->node(n).op;
  const ddg::ResourceClass rc = ddg::opResource(op);
  if (rc != ddg::ResourceClass::kNone && rt.count(rc) == 0) return false;

  // Incoming copies: every located operand source must reach `cluster`,
  // cumulatively within the in-neighbor budget.
  const auto& constraints = prepared.problem().constraints;
  const int inCap = detail::effectiveInCap(pg.node(cluster), constraints);
  std::uint64_t mask = sol.inNbrMask(cluster);
  for (const ValueId v : prepared.operandValues(n)) {
    const ClusterId loc = valueLocation(prepared, sol, v);
    if (!loc.valid() || loc == cluster) continue;
    if (sol.valueDelivered(cluster, v)) continue;  // already routed here
    if (pg.node(loc).dead || pg.node(loc).outWireCap == 0) return false;
    const auto arc = pg.arcBetween(loc, cluster);
    if (!arc.has_value()) return false;
    if (sol.flowContains(*arc, v)) continue;
    if ((mask & detail::pgBit(loc)) == 0) {
      if (inCap >= 0 && __builtin_popcountll(mask) >= inCap) {
        return false;
      }
      mask |= detail::pgBit(loc);
    }
  }

  // Outgoing copies to already-assigned WS consumers.
  const ValueId produced(n.value());
  for (const DdgNodeId consumer : prepared.wsConsumers(n)) {
    const ClusterId d = sol.clusterOf(consumer);
    if (!d.valid() || d == cluster) continue;
    if (sol.valueDelivered(d, produced)) continue;  // already routed there
    if (!canAddCopy(prepared, sol, cluster, d, produced)) return false;
  }

  // Output-wire requirement (outNode_MaxIn, Fig. 10).
  const ClusterId out = prepared.outputNodeOf(produced);
  if (out.valid() && !sol.valueDelivered(out, produced) &&
      !canAddCopy(prepared, sol, cluster, out, produced)) {
    return false;
  }
  return true;
}

/// Adds a copy of `value` on the (required) arc src->dst; addFlowCopy
/// handles idempotence, the in-neighbor mask, and the distinct in/out value
/// lists.
inline void addCopy(const PreparedProblem& prepared, DeltaSolution& sol,
                    ClusterId src, ClusterId dst, ValueId value) {
  const auto& pg = *prepared.problem().pg;
  const auto arc = pg.arcBetween(src, dst);
  HCA_CHECK(arc.has_value(),
            "addCopy without arc " << to_string(src) << "->" << to_string(dst));
  sol.addFlowCopy(*arc, src, dst, value);
}

/// Applies the assignment (must be canAssign). Adds the implied copies:
/// operand sources -> cluster, cluster -> already-assigned consumers,
/// cluster -> output wire if the produced value leaves the sub-problem.
/// Also records the critical-path terms this assignment completes: a
/// cross-cluster WS dependence charges double(height(consumer)+1) /
/// maxWsHeight exactly once, when its second endpoint lands.
inline void assign(const PreparedProblem& prepared, DeltaSolution& sol,
                   const Item& item, ClusterId cluster) {
  if (item.kind == Item::Kind::kRelay) {
    const auto& relays = prepared.problem().relayValues;
    const auto idx = static_cast<std::size_t>(
        std::find(relays.begin(), relays.end(), item.value) - relays.begin());
    HCA_CHECK(idx < relays.size(), "relay value not in problem");
    sol.setRelayCluster(idx, cluster);
    sol.addOp(cluster, ddg::Op::kRecv);
    if (!sol.valueDelivered(cluster, item.value)) {
      addCopy(prepared, sol, prepared.valueSource(item.value), cluster,
               item.value);
    }
    const ClusterId relayOut = prepared.outputNodeOf(item.value);
    if (!sol.valueDelivered(relayOut, item.value)) {
      addCopy(prepared, sol, cluster, relayOut, item.value);
    }
    sol.noteAssigned();
    return;
  }

  const DdgNodeId n = item.node;
  sol.setNodeCluster(n, cluster);
  sol.addOp(cluster, prepared.problem().ddg->node(n).op);
  sol.noteAssigned();
  for (const CritOperand& co : prepared.critOperands(n)) {
    const ClusterId cp = sol.clusterOf(co.src);
    if (cp.valid() && cp != cluster) {
      sol.addCritTerm(
          PreparedProblem::critKey(prepared.wsIndex(n), co.operandIndex),
          prepared.height(n) + 1);
    }
  }
  for (const CritUse& cu : prepared.critUses(n)) {
    const ClusterId cc = sol.clusterOf(cu.consumer);
    if (cc.valid() && cc != cluster) {
      sol.addCritTerm(PreparedProblem::critKey(prepared.wsIndex(cu.consumer),
                                               cu.operandIndex),
                      prepared.height(cu.consumer) + 1);
    }
  }

  for (const ValueId v : prepared.operandValues(n)) {
    if (sol.valueDelivered(cluster, v)) continue;
    const ClusterId loc = valueLocation(prepared, sol, v);
    if (loc.valid() && loc != cluster) {
      addCopy(prepared, sol, loc, cluster, v);
    }
  }
  const ValueId produced(n.value());
  for (const DdgNodeId consumer : prepared.wsConsumers(n)) {
    const ClusterId d = sol.clusterOf(consumer);
    if (d.valid() && d != cluster && !sol.valueDelivered(d, produced)) {
      addCopy(prepared, sol, cluster, d, produced);
    }
  }
  const ClusterId out = prepared.outputNodeOf(produced);
  if (out.valid() && !sol.valueDelivered(out, produced)) {
    addCopy(prepared, sol, cluster, out, produced);
  }
}

/// Routes `value` from `path.front()` to `path.back()` through intermediate
/// clusters. Every hop must be addable; the route allocator validates hops
/// beforehand.
inline void applyRoute(const PreparedProblem& prepared, DeltaSolution& sol,
                       ValueId value, const std::vector<ClusterId>& path) {
  HCA_REQUIRE(path.size() >= 2, "route needs at least two nodes");
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    addCopy(prepared, sol, path[i], path[i + 1], value);
  }
}

}  // namespace hca::see
