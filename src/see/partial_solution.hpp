#pragma once

#include <cstdint>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "support/ids.hpp"

/// The result record of one SEE search: a (partial) assignment of the
/// working set with the per-cluster resource usage, the copy flow on the PG
/// arcs, the real in-neighbor masks (the reconfiguration budget) and the
/// distinct values entering/leaving each cluster (the copy pressure the
/// Mapper will have to distribute over wires).
///
/// Read-only value type: the beam search runs on arena snapshots and
/// copy-on-write deltas (see snapshot.hpp) and hands its frontier to the
/// driver, mapper, flat-ICA baseline and sub-problem cache as PartialSolution
/// values built by FlatSolution::toPartial.
namespace hca::see {

class FlatSolution;

class PartialSolution {
 public:
  [[nodiscard]] ClusterId clusterOf(DdgNodeId node) const {
    return nodeCluster_[node.index()];
  }
  [[nodiscard]] ClusterId relayCluster(int relayIndex) const {
    return relayCluster_[static_cast<std::size_t>(relayIndex)];
  }
  [[nodiscard]] const machine::CopyFlow& flow() const { return flow_; }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return static_cast<int>(inValues_[c.index()].size());
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return static_cast<int>(outValues_[c.index()].size());
  }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }

  /// Stable hash of the assignment vector (frontier deduplication).
  [[nodiscard]] std::uint64_t signature() const;

  /// Approximate heap footprint in bytes (sub-problem cache accounting).
  [[nodiscard]] std::size_t approxBytes() const;

 private:
  friend class FlatSolution;

  std::vector<ClusterId> nodeCluster_;   // per DDG node
  std::vector<ClusterId> relayCluster_;  // per relay value (problem order)
  std::vector<machine::ResourceUsage> usage_;       // per PG node
  machine::CopyFlow flow_;
  std::vector<std::uint64_t> inNbrMask_;            // per PG node
  std::vector<std::vector<ValueId>> inValues_;      // distinct, per PG node
  std::vector<std::vector<ValueId>> outValues_;     // distinct, per PG node
  int assigned_ = 0;
  double objective_ = 0.0;
};

}  // namespace hca::see
