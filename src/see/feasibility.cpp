#include "see/feasibility.hpp"

#include <vector>

#include "see/snapshot.hpp"
#include "see/solution_ops.hpp"

namespace hca::see {

FeasibilityOracle::FeasibilityOracle(const PreparedProblem& prepared)
    : prepared_(&prepared) {
  const auto& pg = *prepared.problem().pg;
  numPg_ = static_cast<std::size_t>(pg.numNodes());

  for (const ClusterId c : prepared.clusters()) {
    if (pg.node(c).dead) continue;
    aliveMask_ |= detail::pgBit(c);
    if (pg.node(c).outWireCap != 0) sendMask_ |= detail::pgBit(c);
    const auto& rt = pg.node(c).resources;
    if (rt.count(ddg::ResourceClass::kAlu) > 0) {
      rcMask_[static_cast<int>(ddg::ResourceClass::kAlu)] |= detail::pgBit(c);
    }
    if (rt.count(ddg::ResourceClass::kAg) > 0) {
      rcMask_[static_cast<int>(ddg::ResourceClass::kAg)] |= detail::pgBit(c);
    }
  }

  // Static prefixes of canAddCopy: a copy src -> dst requires a live
  // sender with a surviving output wire, an arc, and a live receiver.
  arcOutMask_.assign(numPg_, 0);
  arcInMask_.assign(numPg_, 0);
  for (std::int32_t u = 0; u < pg.numNodes(); ++u) {
    const ClusterId src(u);
    if (pg.node(src).dead || pg.node(src).outWireCap == 0) continue;
    for (const PgArcId a : pg.outArcs(src)) {
      const ClusterId dst = pg.arc(a).dst;
      if (pg.node(dst).dead) continue;
      arcOutMask_[src.index()] |= detail::pgBit(dst);
      arcInMask_[dst.index()] |= detail::pgBit(src);
    }
  }

  // Per-group static mask: alive, resource-class-capable for every node
  // member, and able to feed every output wire a node member's value must
  // leave on (the produced value cannot be delivered anywhere before its
  // producer is placed, so the arc requirement is unconditional).
  groupMask_.reserve(prepared.items().size());
  for (const ItemGroup& group : prepared.items()) {
    std::uint64_t m = aliveMask_;
    for (const Item& item : group.members) {
      if (item.kind != Item::Kind::kNode) continue;
      const ddg::ResourceClass rc =
          ddg::opResource(prepared.problem().ddg->node(item.node).op);
      if (rc != ddg::ResourceClass::kNone) {
        m &= rcMask_[static_cast<int>(rc)];
      }
      const ClusterId out = prepared.outputNodeOf(ValueId(item.node.value()));
      if (out.valid()) m &= arcInMask_[out.index()];
    }
    groupMask_.push_back(m);
  }
}

// Static relay-hop distances: BFS from every node over arcs whose
// intermediate hops are alive clusters that can re-send. Distances are
// recorded for every live node (findPath's destination may be an output
// node), but only clusters are expanded — exactly the relay rule of the
// dynamic BFS with all budget checks assumed to pass, so a static
// kUnreachable implies dynamic unreachability at any budget.
void FeasibilityOracle::buildHopMatrix() const {
  const auto& pg = *prepared_->problem().pg;
  hop_.assign(numPg_ * numPg_, kUnreachable);
  std::vector<ClusterId> queue;
  for (std::int32_t s = 0; s < pg.numNodes(); ++s) {
    const ClusterId src(s);
    std::uint8_t* dist = &hop_[static_cast<std::size_t>(s) * numPg_];
    dist[src.index()] = 0;
    if (pg.node(src).dead || pg.node(src).outWireCap == 0) continue;
    queue.clear();
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ClusterId u = queue[head];
      if (dist[u.index()] == kUnreachable - 1) continue;
      for (const PgArcId a : pg.outArcs(u)) {
        const ClusterId w = pg.arc(a).dst;
        if (pg.node(w).dead || dist[w.index()] != kUnreachable) continue;
        dist[w.index()] = static_cast<std::uint8_t>(dist[u.index()] + 1);
        if (pg.node(w).kind == machine::PgNodeKind::kCluster &&
            pg.node(w).outWireCap != 0) {
          queue.push_back(w);
        }
      }
    }
  }
  hopsBuilt_ = true;
}

std::uint64_t FeasibilityOracle::directFeasibleMask(
    const FlatSolution& state, std::size_t groupIndex) const {
  const PreparedProblem& prep = *prepared_;
  const auto& pg = *prep.problem().pg;
  const auto& constraints = prep.problem().constraints;
  const ItemGroup& group = prep.items()[groupIndex];
  std::uint64_t m = groupMask_[groupIndex];
  if (m == 0) return 0;

  // Clusters with a free in-neighbor slot (or no MUX cap) in the parent
  // state. Masks only gain bits mid-group, so "no room and the source is
  // not an in-neighbor yet" stays a rejection for every member. Built
  // lazily: groups with no placed producers/consumers (the early beam
  // steps) never need it.
  std::uint64_t room = 0;
  bool roomBuilt = false;
  const auto ensureRoom = [&] {
    if (roomBuilt) return;
    roomBuilt = true;
    for (const ClusterId c : prep.clusters()) {
      const int cap = detail::effectiveInCap(pg.node(c), constraints);
      if (cap < 0 ||
          __builtin_popcountll(state.inNbrMask(c)) < cap) {
        room |= detail::pgBit(c);
      }
    }
  };

  // Candidate clusters where the copy loc -> candidate required for value
  // `v` could still be added: the location itself, arc-connected receivers
  // with budget room or with loc already among their in-neighbors, and
  // clusters already holding v.
  const auto restrictByCopyFrom = [&](ClusterId loc, ValueId v) {
    ensureRoom();
    const std::uint64_t viaArc = arcOutMask_[loc.index()];
    std::uint64_t keep = detail::pgBit(loc);
    std::uint64_t rest = m & ~keep;
    while (rest != 0) {
      const std::uint64_t bit = rest & (~rest + 1);
      rest ^= bit;
      const ClusterId c(__builtin_ctzll(bit));
      if ((viaArc & bit) != 0 &&
          ((room & bit) != 0 ||
           (state.inNbrMask(c) & detail::pgBit(loc)) != 0)) {
        keep |= bit;
      } else if (state.inValuesContain(c, v)) {
        keep |= bit;
      }
    }
    m &= keep;
  };

  // Candidate clusters that could still send a (not-yet-existing) value to
  // the fixed cluster `d`: d itself, or arc-connected senders while d has
  // budget room / already lists the sender as an in-neighbor.
  const auto restrictByCopyTo = [&](ClusterId d) {
    ensureRoom();
    std::uint64_t allowed = detail::pgBit(d);
    const std::uint64_t senders = sendMask_ & arcInMask_[d.index()];
    if ((room & detail::pgBit(d)) != 0) {
      allowed |= senders;
    } else {
      allowed |= senders & state.inNbrMask(d);
    }
    m &= allowed;
  };

  // A claimed output wire pins the group to its single feeder (the paper's
  // outNode_MaxIn): once some cluster feeds `out`, only that cluster can
  // add further values to the wire.
  const auto restrictByOutputWire = [&](ClusterId out) {
    if (!constraints.outputNodeUnaryFanIn) return;
    const std::uint64_t s = state.inNbrMask(out);
    if (s == 0) return;
    m &= (__builtin_popcountll(s) == 1) ? s : 0;
  };

  for (const Item& item : group.members) {
    if (m == 0) return 0;
    if (item.kind == Item::Kind::kRelay) {
      // Source -> candidate (delivered values short-circuit inside), then
      // candidate -> output wire unless the value already reached it.
      restrictByCopyFrom(prep.valueSource(item.value), item.value);
      const ClusterId out = prep.outputNodeOf(item.value);
      if (!state.inValuesContain(out, item.value)) {
        m &= arcInMask_[out.index()];
        restrictByOutputWire(out);
      }
      continue;
    }
    const DdgNodeId n = item.node;
    for (const ValueId v : prep.operandValues(n)) {
      const DdgNodeId producer(v.value());
      const ClusterId loc = prep.inWorkingSet(producer)
                                ? state.clusterOf(producer)
                                : prep.valueSource(v);
      if (!loc.valid()) continue;  // producer unplaced: no constraint yet
      restrictByCopyFrom(loc, v);
      if (m == 0) return 0;
    }
    const ValueId produced(n.value());
    for (const DdgNodeId consumer : prep.wsConsumers(n)) {
      const ClusterId d = state.clusterOf(consumer);
      if (d.valid()) restrictByCopyTo(d);
    }
    const ClusterId out = prep.outputNodeOf(produced);
    if (out.valid()) restrictByOutputWire(out);
  }

  return m;
}

}  // namespace hca::see
