#include "see/partial_solution.hpp"

namespace hca::see {

std::uint64_t PartialSolution::signature() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&](std::int32_t v) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
    h *= 1099511628211ULL;
  };
  for (const ClusterId c : nodeCluster_) mix(c.value());
  for (const ClusterId c : relayCluster_) mix(c.value());
  return h;
}

std::size_t PartialSolution::approxBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += nodeCluster_.capacity() * sizeof(ClusterId);
  bytes += relayCluster_.capacity() * sizeof(ClusterId);
  bytes += usage_.capacity() * sizeof(machine::ResourceUsage);
  bytes += inNbrMask_.capacity() * sizeof(std::uint64_t);
  for (std::size_t arc = 0; arc < flow_.numArcLists(); ++arc) {
    bytes += sizeof(std::vector<ValueId>) +
             flow_.copiesOn(PgArcId(static_cast<std::int32_t>(arc))).capacity() *
                 sizeof(ValueId);
  }
  for (const auto& values : inValues_) {
    bytes += sizeof(values) + values.capacity() * sizeof(ValueId);
  }
  for (const auto& values : outValues_) {
    bytes += sizeof(values) + values.capacity() * sizeof(ValueId);
  }
  return bytes;
}

}  // namespace hca::see
