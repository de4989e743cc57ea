#pragma once

#include <cstdint>

#include "see/prepared.hpp"

/// Feasibility oracle of the SEE beam loop: answers "can this candidate
/// cluster possibly survive the direct-assignment check?" with one AND+test
/// before the engine pays for a DeltaSolution acquire (dense-state memcpy)
/// and a member-by-member canAssign walk.
///
/// The contract that keeps the search byte-identical: a cluster the oracle
/// rejects must *provably* fail the direct-assignment loop — some member's
/// canAssign must return false — so skipping it changes no candidate set,
/// no ordering, and (with the engine mirroring the counter increments of
/// the skipped code path) no statistics. The oracle therefore only encodes
/// rejection reasons that are sound against the *parent* frontier snapshot:
///
///  * static facts (dead clusters, missing resource classes, missing arcs,
///    senders with no surviving output wire) — valid in any state;
///  * monotone parent-state facts: in-neighbor masks only gain bits while
///    a group's members are placed, and a value can
///    only become delivered to a cluster through an arc from its (fixed)
///    location — so "budget already exhausted and the source is not an
///    in-neighbor yet" or "the single output-wire feeder is already chosen"
///    remain rejections mid-group (see DESIGN.md §4k for the case analysis).
///
/// Anything whose mid-group evolution could *help* a later member (shared
/// flows, out-neighbor counts of the candidate itself) is deliberately left
/// to canAssign.
///
/// The oracle also precomputes the static relay-hop distance matrix over
/// the alive pattern graph (budgets ignored — a strict over-approximation
/// of dynamic routability), which lets findPath refuse provably
/// unreachable (src, dst) pairs without running a BFS.
namespace hca::see {

class FlatSolution;

class FeasibilityOracle {
 public:
  /// Static hop distance marking an unreachable pair.
  static constexpr std::uint8_t kUnreachable = 0xff;

  explicit FeasibilityOracle(const PreparedProblem& prepared);

  /// Alive kCluster nodes — the only clusters any item can ever land on.
  [[nodiscard]] std::uint64_t aliveMask() const { return aliveMask_; }

  /// State-independent feasible-cluster mask of one priority-list group:
  /// alive, resource-class-capable for every node member, and able to feed
  /// every output wire a node member's value must leave on.
  [[nodiscard]] std::uint64_t groupMask(std::size_t groupIndex) const {
    return groupMask_[groupIndex];
  }

  /// Shortest relay path length (in arcs) from `src` to `dst` where every
  /// intermediate node is an alive cluster with a surviving output wire —
  /// the static over-approximation of findPath's search graph.
  /// kUnreachable when no such path exists at any length.
  ///
  /// The matrix is built lazily on first call: most prepared problems never
  /// invoke the route allocator (route_invocations.L0 is typically zero),
  /// and the numPg² BFS sweep is the most expensive part of oracle
  /// construction. Lazy `mutable` state is safe because a PreparedProblem
  /// and its oracle are private to one solve attempt (one thread).
  [[nodiscard]] std::uint8_t hopDistance(ClusterId src, ClusterId dst) const {
    if (!hopsBuilt_) buildHopMatrix();
    return hop_[static_cast<std::size_t>(src.index()) * numPg_ + dst.index()];
  }

  /// Mask of clusters on which the *direct* (unrouted) assignment of the
  /// whole group might succeed when expanding `state`; every cluster
  /// outside the mask provably fails canAssign for some member. Sound
  /// only for the direct-candidate loop: a rejected cluster may still be
  /// reachable through the route allocator.
  [[nodiscard]] std::uint64_t directFeasibleMask(
      const FlatSolution& state, std::size_t groupIndex) const;

 private:
  void buildHopMatrix() const;

  const PreparedProblem* prepared_;
  std::size_t numPg_ = 0;
  std::uint64_t aliveMask_ = 0;
  /// Clusters able to originate a new copy (alive, outWireCap != 0).
  std::uint64_t sendMask_ = 0;
  /// Per resource class (kAlu, kAg): clusters owning at least one unit.
  std::uint64_t rcMask_[ddg::kNumResourceClasses] = {};
  /// Per PG node u: heads of u's out-arcs, zeroed when u is dead or has no
  /// surviving output wire (the static prefix of canAddCopy).
  std::vector<std::uint64_t> arcOutMask_;
  /// Per PG node w: alive-cluster tails of w's in-arcs that can still send.
  std::vector<std::uint64_t> arcInMask_;
  /// Per group: the static mask documented at groupMask().
  std::vector<std::uint64_t> groupMask_;
  /// Row-major static hop-distance matrix (kUnreachable = no path), built
  /// on first hopDistance() call — see the accessor comment.
  mutable std::vector<std::uint8_t> hop_;
  mutable bool hopsBuilt_ = false;
};

}  // namespace hca::see
