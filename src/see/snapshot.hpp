#pragma once

#include <cstdint>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "see/partial_solution.hpp"
#include "see/prepared.hpp"
#include "support/arena.hpp"

/// The search state of the SEE beam loop, in two halves:
///
///  * `FlatSolution` — an immutable snapshot of a surviving frontier state,
///    placement-allocated in a per-attempt `MonotonicArena` with every
///    variable-length list flattened into CSR arrays. Snapshots are written
///    once (the initial state and the beam survivors) and never mutated;
///    the engine double-buffers two arenas and resets the retired one each
///    step, so steady-state steps allocate nothing.
///  * `DeltaSolution` — a pooled, mutable candidate overlay: dense
///    fixed-size state (assignment vectors, per-PG-node usage/masks/counts)
///    is memcpy'd from the parent snapshot, while the heap-heavy lists stay
///    shared with the parent and only *additions* (new copies, newly
///    delivered values, completed critical-path terms) are recorded.
///
/// The assignment semantics (solution_ops.hpp), the route allocator
/// (route_allocator.hpp) and the objective (cost.hpp) all operate on a
/// DeltaSolution; the feasibility oracle reads the parent FlatSolution.
/// Integer aggregates (copy totals, usage, counts) are exact by
/// construction. The one floating-point term whose value depends on the
/// summation order — the critical-path penalty — is kept as terms sorted by
/// (working-set position, operand position) and summed as a parent/delta
/// merge in that order, so equal assignments score bit-identically however
/// they were reached. When a delta flattens, list contents are parent-order
/// followed by append-order: the chronological order of the edits.
namespace hca::see {

class DeltaSolution;

/// Immutable arena-backed snapshot of one frontier state.
class FlatSolution {
 public:
  /// The empty, scored root of a search in `arena`: nothing assigned,
  /// input nodes pre-count their boundary values as sent values so wire
  /// pressure is measured from the start.
  static const FlatSolution* initial(const PreparedProblem& prepared,
                                     MonotonicArena& arena);
  /// Flattens parent + delta into a new snapshot in `arena` (which must
  /// not be the arena holding the delta's parent mid-reset).
  static const FlatSolution* fromDelta(const DeltaSolution& delta,
                                       MonotonicArena& arena);
  /// Copies the snapshot into the result record handed across the engine
  /// boundary (SeeResult / driver / mapper): clusters re-indexed by
  /// working-set position, per-PG-node value lists reduced to their
  /// counts, flow lists in the same order.
  void toPartial(const PreparedProblem& prepared, PartialSolution* out) const;

  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    return nodeCluster_[node.index()];
  }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] std::uint64_t inNbrMask(ClusterId c) const {
    return inNbrMask_[c.index()];
  }
  /// True when `v` already flows into cluster `c`.
  [[nodiscard]] bool inValuesContain(ClusterId c, ValueId v) const;
  [[nodiscard]] bool flowContains(PgArcId arc, ValueId v) const;
  [[nodiscard]] bool flowIsReal(PgArcId arc) const {
    return flowOff_[arc.index() + 1] > flowOff_[arc.index()];
  }
  [[nodiscard]] int totalCopies() const { return totalCopies_; }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }

  [[nodiscard]] const CritTerm* critTerms() const { return critTerms_; }
  [[nodiscard]] std::int32_t numCritTerms() const { return numCritTerms_; }

 private:
  friend class DeltaSolution;

  /// Allocates an uninitialized snapshot with CSR capacity for the given
  /// totals.
  static FlatSolution* allocate(std::int32_t numNodes, std::int32_t numRelays,
                                std::int32_t numPg, std::int32_t numArcs,
                                std::int32_t inTotal, std::int32_t outTotal,
                                std::int32_t flowTotal,
                                std::int32_t critTotal,
                                MonotonicArena& arena);

  std::int32_t numNodes_ = 0;
  std::int32_t numRelays_ = 0;
  std::int32_t numPg_ = 0;
  std::int32_t numArcs_ = 0;
  ClusterId* nodeCluster_ = nullptr;
  ClusterId* relayCluster_ = nullptr;
  machine::ResourceUsage* usage_ = nullptr;
  std::uint64_t* inNbrMask_ = nullptr;
  std::int32_t* inCount_ = nullptr;   // == inOff_[p+1] - inOff_[p]
  std::int32_t* outCount_ = nullptr;
  std::int32_t* inOff_ = nullptr;     // CSR per PG node
  ValueId* inVals_ = nullptr;
  std::int32_t* outOff_ = nullptr;
  ValueId* outVals_ = nullptr;
  std::int32_t* flowOff_ = nullptr;   // CSR per PG arc
  ValueId* flowVals_ = nullptr;
  CritTerm* critTerms_ = nullptr;     // sorted by key
  std::int32_t numCritTerms_ = 0;
  int totalCopies_ = 0;
  int assigned_ = 0;
  double objective_ = 0.0;
};

/// Pooled copy-on-write candidate: dense overlay + edit lists against an
/// immutable parent snapshot. The state solution_ops.hpp mutates and
/// cost.hpp scores.
class DeltaSolution {
 public:
  /// Sizes the dense arrays for the problem; called once per pooled
  /// instance per search attempt.
  void init(const PreparedProblem& prepared);
  /// Rebases onto `parent`: memcpys the dense state, clears the edit
  /// lists. O(dense bytes), zero allocations in steady state.
  void reset(const FlatSolution* parent);

  [[nodiscard]] const FlatSolution* parent() const { return parent_; }

  // --- reads -----------------------------------------------------------
  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    return nodeCluster_[node.index()];
  }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] std::uint64_t inNbrMask(ClusterId c) const {
    return inNbrMask_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return inCount_[c.index()];
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return outCount_[c.index()];
  }
  [[nodiscard]] int realInNeighborCount(ClusterId c) const {
    return __builtin_popcountll(inNbrMask_[c.index()]);
  }
  [[nodiscard]] bool valueDelivered(ClusterId dst, ValueId value) const;
  [[nodiscard]] bool flowContains(PgArcId arc, ValueId value) const;
  [[nodiscard]] bool flowIsReal(PgArcId arc) const;
  [[nodiscard]] int totalCopies() const { return totalCopies_; }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }
  void setObjective(double value) { objective_ = value; }
  /// Stable hash of the assignment — the working-set clusters in
  /// working-set order, then the relays: the same FNV-1a stream as
  /// PartialSolution::signature() of the flattened state.
  [[nodiscard]] std::uint64_t signature() const;

  // --- writes (solution_ops.hpp) ----------------------------------------
  void setNodeCluster(DdgNodeId node, ClusterId cluster) {
    nodeCluster_[node.index()] = cluster;
  }
  void setRelayCluster(std::size_t relayIndex, ClusterId cluster) {
    relayCluster_[relayIndex] = cluster;
  }
  void addOp(ClusterId cluster, ddg::Op op) {
    usage_[cluster.index()].addOp(op);
  }
  bool addFlowCopy(PgArcId arc, ClusterId src, ClusterId dst, ValueId value);
  void noteAssigned() { ++assigned_; }
  void addCritTerm(std::uint64_t key, std::int64_t num) {
    critAdds_.push_back(CritTerm{key, num});
  }

  /// Critical-path penalty (cost.hpp criterion 4): the parent's sorted
  /// terms merged with this delta's additions, summed in ascending key
  /// order. Sorts the additions in place first.
  [[nodiscard]] double criticalPathScore(const PreparedProblem& prepared);

 private:
  friend class FlatSolution;

  const FlatSolution* parent_ = nullptr;
  const std::vector<DdgNodeId>* workingSet_ = nullptr;  // signature order
  // Dense overlay, memcpy'd from the parent on reset.
  std::vector<ClusterId> nodeCluster_;
  std::vector<ClusterId> relayCluster_;
  std::vector<machine::ResourceUsage> usage_;
  std::vector<std::uint64_t> inNbrMask_;
  std::vector<std::int32_t> inCount_;
  std::vector<std::int32_t> outCount_;
  // Edit lists: additions relative to the parent, in application order.
  std::vector<std::pair<ClusterId, ValueId>> inAdds_;   // (dst, value)
  std::vector<std::pair<ClusterId, ValueId>> outAdds_;  // (src, value)
  std::vector<std::pair<PgArcId, ValueId>> flowAdds_;
  std::vector<CritTerm> critAdds_;
  // Materialization scratch (per-PG-node / per-arc write cursors).
  mutable std::vector<std::int32_t> cursor_;
  int totalCopies_ = 0;
  int assigned_ = 0;
  double objective_ = 0.0;
};

}  // namespace hca::see
