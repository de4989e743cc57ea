#include "see/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "see/cost.hpp"
#include "see/solution_ops.hpp"
#include "support/check.hpp"

namespace hca::see {

namespace {

template <typename T>
void copyInto(T* dst, const std::vector<T>& src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size() * sizeof(T));
}

template <typename T>
void copyInto(T* dst, const T* src, std::size_t count) {
  if (count != 0) std::memcpy(dst, src, count * sizeof(T));
}

bool critKeyLess(const CritTerm& a, const CritTerm& b) { return a.key < b.key; }

}  // namespace

FlatSolution* FlatSolution::allocate(std::int32_t numNodes,
                                     std::int32_t numRelays,
                                     std::int32_t numPg, std::int32_t numArcs,
                                     std::int32_t inTotal,
                                     std::int32_t outTotal,
                                     std::int32_t flowTotal,
                                     std::int32_t critTotal,
                                     MonotonicArena& arena) {
  auto* flat = new (arena.allocate(sizeof(FlatSolution), alignof(FlatSolution)))
      FlatSolution;
  flat->numNodes_ = numNodes;
  flat->numRelays_ = numRelays;
  flat->numPg_ = numPg;
  flat->numArcs_ = numArcs;
  const auto n = static_cast<std::size_t>(numNodes);
  const auto r = static_cast<std::size_t>(numRelays);
  const auto p = static_cast<std::size_t>(numPg);
  const auto a = static_cast<std::size_t>(numArcs);
  flat->nodeCluster_ = arena.allocateArray<ClusterId>(n);
  flat->relayCluster_ = arena.allocateArray<ClusterId>(r);
  flat->usage_ = arena.allocateArray<machine::ResourceUsage>(p);
  flat->inNbrMask_ = arena.allocateArray<std::uint64_t>(p);
  flat->inCount_ = arena.allocateArray<std::int32_t>(p);
  flat->outCount_ = arena.allocateArray<std::int32_t>(p);
  flat->inOff_ = arena.allocateArray<std::int32_t>(p + 1);
  flat->inVals_ =
      arena.allocateArray<ValueId>(static_cast<std::size_t>(inTotal));
  flat->outOff_ = arena.allocateArray<std::int32_t>(p + 1);
  flat->outVals_ =
      arena.allocateArray<ValueId>(static_cast<std::size_t>(outTotal));
  flat->flowOff_ = arena.allocateArray<std::int32_t>(a + 1);
  flat->flowVals_ =
      arena.allocateArray<ValueId>(static_cast<std::size_t>(flowTotal));
  flat->critTerms_ =
      arena.allocateArray<CritTerm>(static_cast<std::size_t>(critTotal));
  flat->numCritTerms_ = critTotal;
  return flat;
}

const FlatSolution* FlatSolution::initial(const PreparedProblem& prepared,
                                          MonotonicArena& arena) {
  const auto& pg = *prepared.problem().pg;
  const std::int32_t numPg = pg.numNodes();
  const std::int32_t numArcs = pg.numArcs();

  // Input nodes already "send" their (distinct) boundary values.
  std::vector<std::vector<ValueId>> sent(static_cast<std::size_t>(numPg));
  std::int32_t outTotal = 0;
  for (const ClusterId in : pg.inputNodes()) {
    auto& list = sent[in.index()];
    for (const ValueId v : pg.node(in).boundaryValues) {
      if (std::find(list.begin(), list.end(), v) != list.end()) continue;
      list.push_back(v);
      ++outTotal;
    }
  }

  FlatSolution* flat = allocate(
      prepared.problem().ddg->numNodes(),
      static_cast<std::int32_t>(prepared.problem().relayValues.size()), numPg,
      numArcs, 0, outTotal, 0, 0, arena);
  std::fill(flat->nodeCluster_, flat->nodeCluster_ + flat->numNodes_,
            ClusterId::invalid());
  std::fill(flat->relayCluster_, flat->relayCluster_ + flat->numRelays_,
            ClusterId::invalid());
  std::fill(flat->usage_, flat->usage_ + numPg, machine::ResourceUsage{});
  std::fill(flat->inNbrMask_, flat->inNbrMask_ + numPg, 0);
  std::fill(flat->inCount_, flat->inCount_ + numPg, 0);
  std::fill(flat->inOff_, flat->inOff_ + numPg + 1, 0);
  std::int32_t outOff = 0;
  for (std::int32_t i = 0; i < numPg; ++i) {
    const auto& list = sent[static_cast<std::size_t>(i)];
    flat->outCount_[i] = static_cast<std::int32_t>(list.size());
    flat->outOff_[i] = outOff;
    copyInto(flat->outVals_ + outOff, list);
    outOff += static_cast<std::int32_t>(list.size());
  }
  flat->outOff_[numPg] = outOff;
  std::fill(flat->flowOff_, flat->flowOff_ + numArcs + 1, 0);

  // Score the root through an edit-free delta over it.
  DeltaSolution root;
  root.init(prepared);
  root.reset(flat);
  flat->objective_ = evaluateObjective(prepared, root);
  return flat;
}

const FlatSolution* FlatSolution::fromDelta(const DeltaSolution& delta,
                                            MonotonicArena& arena) {
  const FlatSolution& parent = *delta.parent_;
  const std::int32_t numPg = parent.numPg_;
  const std::int32_t numArcs = parent.numArcs_;
  FlatSolution* flat = allocate(
      parent.numNodes_, parent.numRelays_, numPg, numArcs,
      parent.inOff_[numPg] + static_cast<std::int32_t>(delta.inAdds_.size()),
      parent.outOff_[numPg] + static_cast<std::int32_t>(delta.outAdds_.size()),
      parent.flowOff_[numArcs] +
          static_cast<std::int32_t>(delta.flowAdds_.size()),
      parent.numCritTerms_ + static_cast<std::int32_t>(delta.critAdds_.size()),
      arena);

  copyInto(flat->nodeCluster_, delta.nodeCluster_);
  copyInto(flat->relayCluster_, delta.relayCluster_);
  copyInto(flat->usage_, delta.usage_);
  copyInto(flat->inNbrMask_, delta.inNbrMask_);
  copyInto(flat->inCount_, delta.inCount_);
  copyInto(flat->outCount_, delta.outCount_);

  // CSR rebuild: parent slice first, then this delta's additions in append
  // order — the chronological order of the edits. `cursor_` tracks each row's next free slot.
  auto& cursor = delta.cursor_;
  const auto fillCsr = [&cursor](std::int32_t rows, const std::int32_t* counts,
                                 std::int32_t* off, ValueId* vals,
                                 const std::int32_t* parentOff,
                                 const ValueId* parentVals) {
    std::int32_t total = 0;
    for (std::int32_t i = 0; i < rows; ++i) {
      off[i] = total;
      total += counts[i];
      const std::int32_t parentLen = parentOff[i + 1] - parentOff[i];
      copyInto(vals + off[i], parentVals + parentOff[i],
               static_cast<std::size_t>(parentLen));
      cursor[static_cast<std::size_t>(i)] = off[i] + parentLen;
    }
    off[rows] = total;
  };

  fillCsr(numPg, flat->inCount_, flat->inOff_, flat->inVals_, parent.inOff_,
          parent.inVals_);
  for (const auto& [dst, v] : delta.inAdds_) {
    flat->inVals_[cursor[dst.index()]++] = v;
  }
  fillCsr(numPg, flat->outCount_, flat->outOff_, flat->outVals_,
          parent.outOff_, parent.outVals_);
  for (const auto& [src, v] : delta.outAdds_) {
    flat->outVals_[cursor[src.index()]++] = v;
  }

  // Flow rows: per-arc counts are not tracked densely (arcs outnumber PG
  // nodes); derive them into the offset array first.
  for (std::int32_t i = 0; i <= numArcs; ++i) {
    flat->flowOff_[i] = parent.flowOff_[i];
  }
  std::vector<std::int32_t>& arcExtra = delta.cursor_;  // reused scratch
  HCA_CHECK(arcExtra.size() >= static_cast<std::size_t>(numArcs + 1),
            "delta scratch not sized for arcs");
  std::fill(arcExtra.begin(),
            arcExtra.begin() + static_cast<std::ptrdiff_t>(numArcs), 0);
  for (const auto& [arc, v] : delta.flowAdds_) {
    (void)v;
    ++arcExtra[arc.index()];
  }
  std::int32_t flowTotal = 0;
  for (std::int32_t i = 0; i < numArcs; ++i) {
    const std::int32_t len =
        parent.flowOff_[i + 1] - parent.flowOff_[i] + arcExtra[i];
    const std::int32_t off = flowTotal;
    copyInto(flat->flowVals_ + off, parent.flowVals_ + parent.flowOff_[i],
             static_cast<std::size_t>(parent.flowOff_[i + 1] -
                                      parent.flowOff_[i]));
    arcExtra[i] = off + (parent.flowOff_[i + 1] - parent.flowOff_[i]);
    flat->flowOff_[i] = off;
    flowTotal += len;
  }
  flat->flowOff_[numArcs] = flowTotal;
  for (const auto& [arc, v] : delta.flowAdds_) {
    flat->flowVals_[arcExtra[arc.index()]++] = v;
  }

  // Merge the sorted parent terms with the (sorted) additions.
  std::vector<CritTerm> sortedAdds(delta.critAdds_);
  std::sort(sortedAdds.begin(), sortedAdds.end(), critKeyLess);
  std::merge(parent.critTerms_, parent.critTerms_ + parent.numCritTerms_,
             sortedAdds.begin(), sortedAdds.end(), flat->critTerms_,
             critKeyLess);

  flat->totalCopies_ = delta.totalCopies_;
  flat->assigned_ = delta.assigned_;
  flat->objective_ = delta.objective_;
  return flat;
}

void FlatSolution::toPartial(const PreparedProblem& prepared,
                             PartialSolution* out) const {
  const auto& pg = *prepared.problem().pg;
  const auto& ws = prepared.problem().workingSet;
  out->wsCluster_.resize(ws.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    out->wsCluster_[i] = nodeCluster_[ws[i].index()];
  }
  out->relayCluster_.assign(relayCluster_, relayCluster_ + numRelays_);
  out->usage_.assign(usage_, usage_ + numPg_);
  out->valuesIn_.assign(inCount_, inCount_ + numPg_);
  out->valuesOut_.assign(outCount_, outCount_ + numPg_);
  out->flow_ = machine::CopyFlow(pg);
  for (std::int32_t a = 0; a < numArcs_; ++a) {
    for (std::int32_t j = flowOff_[a]; j < flowOff_[a + 1]; ++j) {
      out->flow_.addCopy(PgArcId(a), flowVals_[j]);
    }
  }
  out->assigned_ = assigned_;
  out->objective_ = objective_;
}

bool FlatSolution::inValuesContain(ClusterId c, ValueId v) const {
  const std::int32_t begin = inOff_[c.index()];
  const std::int32_t end = inOff_[c.index() + 1];
  for (std::int32_t i = begin; i < end; ++i) {
    if (inVals_[i] == v) return true;
  }
  return false;
}

bool FlatSolution::flowContains(PgArcId arc, ValueId v) const {
  const std::int32_t begin = flowOff_[arc.index()];
  const std::int32_t end = flowOff_[arc.index() + 1];
  for (std::int32_t i = begin; i < end; ++i) {
    if (flowVals_[i] == v) return true;
  }
  return false;
}

void DeltaSolution::init(const PreparedProblem& prepared) {
  const auto& pg = *prepared.problem().pg;
  workingSet_ = &prepared.problem().workingSet;
  nodeCluster_.resize(
      static_cast<std::size_t>(prepared.problem().ddg->numNodes()));
  relayCluster_.resize(prepared.problem().relayValues.size());
  const auto p = static_cast<std::size_t>(pg.numNodes());
  usage_.resize(p);
  inNbrMask_.resize(p);
  inCount_.resize(p);
  outCount_.resize(p);
  // Scratch must cover both per-PG-node and per-arc cursor use.
  cursor_.resize(std::max(p, static_cast<std::size_t>(pg.numArcs())) + 1);
}

void DeltaSolution::reset(const FlatSolution* parent) {
  parent_ = parent;
  copyInto(nodeCluster_.data(), parent->nodeCluster_, nodeCluster_.size());
  copyInto(relayCluster_.data(), parent->relayCluster_, relayCluster_.size());
  copyInto(usage_.data(), parent->usage_, usage_.size());
  copyInto(inNbrMask_.data(), parent->inNbrMask_, inNbrMask_.size());
  copyInto(inCount_.data(), parent->inCount_, inCount_.size());
  copyInto(outCount_.data(), parent->outCount_, outCount_.size());
  inAdds_.clear();
  outAdds_.clear();
  flowAdds_.clear();
  critAdds_.clear();
  totalCopies_ = parent->totalCopies_;
  assigned_ = parent->assigned_;
  objective_ = 0.0;
}

bool DeltaSolution::valueDelivered(ClusterId dst, ValueId value) const {
  if (parent_->inValuesContain(dst, value)) return true;
  for (const auto& [d, v] : inAdds_) {
    if (d == dst && v == value) return true;
  }
  return false;
}

bool DeltaSolution::flowContains(PgArcId arc, ValueId value) const {
  if (parent_->flowContains(arc, value)) return true;
  for (const auto& [a, v] : flowAdds_) {
    if (a == arc && v == value) return true;
  }
  return false;
}

bool DeltaSolution::flowIsReal(PgArcId arc) const {
  if (parent_->flowIsReal(arc)) return true;
  for (const auto& [a, v] : flowAdds_) {
    (void)v;
    if (a == arc) return true;
  }
  return false;
}

bool DeltaSolution::addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst,
                                ValueId value) {
  if (flowContains(arc, value)) return false;
  flowAdds_.emplace_back(arc, value);
  ++totalCopies_;
  inNbrMask_[dst.index()] |= detail::pgBit(src);
  if (!valueDelivered(dst, value)) {
    inAdds_.emplace_back(dst, value);
    ++inCount_[dst.index()];
  }
  bool outKnown = false;
  const std::int32_t begin = parent_->outOff_[src.index()];
  const std::int32_t end = parent_->outOff_[src.index() + 1];
  for (std::int32_t i = begin; i < end; ++i) {
    if (parent_->outVals_[i] == value) {
      outKnown = true;
      break;
    }
  }
  if (!outKnown) {
    for (const auto& [s, v] : outAdds_) {
      if (s == src && v == value) {
        outKnown = true;
        break;
      }
    }
  }
  if (!outKnown) {
    outAdds_.emplace_back(src, value);
    ++outCount_[src.index()];
  }
  return true;
}

std::uint64_t DeltaSolution::signature() const {
  ClusterHash h;
  for (const DdgNodeId n : *workingSet_) h.mix(nodeCluster_[n.index()]);
  for (const ClusterId c : relayCluster_) h.mix(c);
  return h.value();
}

double DeltaSolution::criticalPathScore(const PreparedProblem& prepared) {
  std::sort(critAdds_.begin(), critAdds_.end(), critKeyLess);
  const auto maxHeight = static_cast<double>(prepared.maxWsHeight());
  const CritTerm* p = parent_->critTerms_;
  const CritTerm* pEnd = p + parent_->numCritTerms_;
  auto d = critAdds_.cbegin();
  const auto dEnd = critAdds_.cend();
  double penalty = 0;
  while (p != pEnd || d != dEnd) {
    const CritTerm& t =
        (d == dEnd || (p != pEnd && p->key < d->key)) ? *p++ : *d++;
    penalty += static_cast<double>(t.num) / maxHeight;
  }
  return penalty;
}

}  // namespace hca::see
