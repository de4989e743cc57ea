#include "see/partial_solution.hpp"

namespace hca::see {

std::uint64_t PartialSolution::signature() const {
  ClusterHash h;
  for (const ClusterId c : wsCluster_) h.mix(c);
  for (const ClusterId c : relayCluster_) h.mix(c);
  return h.value();
}

std::size_t PartialSolution::approxBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += wsCluster_.capacity() * sizeof(ClusterId);
  bytes += relayCluster_.capacity() * sizeof(ClusterId);
  bytes += usage_.capacity() * sizeof(machine::ResourceUsage);
  bytes += (valuesIn_.capacity() + valuesOut_.capacity()) *
           sizeof(std::int32_t);
  for (std::size_t arc = 0; arc < flow_.numArcLists(); ++arc) {
    bytes += sizeof(std::vector<ValueId>) +
             flow_.copiesOn(PgArcId(static_cast<std::int32_t>(arc))).capacity() *
                 sizeof(ValueId);
  }
  return bytes;
}

}  // namespace hca::see
