#pragma once

#include <cstdint>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "support/ids.hpp"

/// The result record of one SEE search: the cluster of every working-set
/// node and relay value, the per-cluster resource usage, the copy flow on
/// the PG arcs and the number of distinct values entering/leaving each
/// cluster (the copy pressure the Mapper will have to distribute over
/// wires).
///
/// Sized by the sub-problem, not by the DDG: clusters are indexed by
/// working-set position (`SeeProblem::workingSet` order) and relay index,
/// everything else by PG node or arc, so storage is
/// O(|WS| + |relays| + |PG| + copies). A caller holding a DdgNodeId maps it
/// through the working set. Only what the driver, mapper, flat-ICA baseline
/// and sub-problem cache read is kept.
///
/// Read-only value type: the beam search runs on arena snapshots and
/// copy-on-write deltas (see snapshot.hpp) and hands its frontier over as
/// PartialSolution values built by FlatSolution::toPartial.
namespace hca::see {

class FlatSolution;

class PartialSolution {
 public:
  /// Cluster of the working-set node at position `wsIndex`.
  [[nodiscard]] ClusterId wsCluster(int wsIndex) const {
    return wsCluster_[static_cast<std::size_t>(wsIndex)];
  }
  [[nodiscard]] ClusterId relayCluster(int relayIndex) const {
    return relayCluster_[static_cast<std::size_t>(relayIndex)];
  }
  [[nodiscard]] const machine::CopyFlow& flow() const { return flow_; }
  [[nodiscard]] const machine::ResourceUsage& usage(ClusterId c) const {
    return usage_[c.index()];
  }
  [[nodiscard]] int distinctValuesIn(ClusterId c) const {
    return valuesIn_[c.index()];
  }
  [[nodiscard]] int distinctValuesOut(ClusterId c) const {
    return valuesOut_[c.index()];
  }
  [[nodiscard]] int assignedCount() const { return assigned_; }
  [[nodiscard]] double objective() const { return objective_; }

  /// Stable hash of the assignment: the working-set clusters in
  /// working-set order, then the relay clusters (frontier deduplication).
  [[nodiscard]] std::uint64_t signature() const;

  /// Approximate heap footprint in bytes (sub-problem cache accounting).
  [[nodiscard]] std::size_t approxBytes() const;

 private:
  friend class FlatSolution;

  std::vector<ClusterId> wsCluster_;     // per working-set position
  std::vector<ClusterId> relayCluster_;  // per relay value (problem order)
  std::vector<machine::ResourceUsage> usage_;  // per PG node
  machine::CopyFlow flow_;
  std::vector<std::int32_t> valuesIn_;   // distinct values in, per PG node
  std::vector<std::int32_t> valuesOut_;  // distinct values out, per PG node
  int assigned_ = 0;
  double objective_ = 0.0;
};

/// FNV-1a over cluster ids — the one stream PartialSolution::signature and
/// DeltaSolution::signature share.
class ClusterHash {
 public:
  void mix(ClusterId c) {
    hash_ ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.value()));
    hash_ *= 1099511628211ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace hca::see
