#include "see/cost.hpp"

#include <algorithm>

#include "see/snapshot.hpp"

namespace hca::see {

namespace {
int ceilDiv(int a, int b) { return b <= 0 ? 0 : (a + b - 1) / b; }
}  // namespace

int clusterMii(const PreparedProblem& prepared, const DeltaSolution& solution,
               ClusterId cluster) {
  const auto& pg = *prepared.problem().pg;
  const auto& rt = pg.node(cluster).resources;
  const auto& usage = solution.usage(cluster);
  const int recvs = solution.distinctValuesIn(cluster);
  // Issue pressure: every instruction plus one receive per incoming value,
  // spread over the CNs the cluster embraces.
  const int issue = ceilDiv(usage.instructions + recvs, rt.issueSlots());
  // Functional-unit pressure.
  const int alu = ceilDiv(usage.alu, std::max(rt.alu(), 1));
  const int ag = rt.ag() > 0 ? ceilDiv(usage.ag, rt.ag()) : 0;
  // Wire serialization: distinct values crossing the cluster boundary,
  // spread over the wires the Mapper can balance them on.
  const int inPressure = ceilDiv(solution.distinctValuesIn(cluster),
                                 prepared.problem().inWiresPerCluster);
  const int outPressure = ceilDiv(solution.distinctValuesOut(cluster),
                                  prepared.problem().outWiresPerCluster);
  return std::max({issue, alu, ag, inPressure, outPressure, 1});
}

double iiEstimateScore(const PreparedProblem& prepared,
                       const DeltaSolution& solution) {
  // Per-cluster MIIs are clamped to the loop's target II (iniMII): the
  // final MII is max(iniMII, maxClsMII), so only excess above the target
  // costs anything. The max dominates; the clamped average (scaled down)
  // breaks ties between states with equal bottlenecks.
  const int target = std::max(1, prepared.options().weights.targetIi);
  double sum = 0;
  int maxMii = target;
  for (const ClusterId c : prepared.clusters()) {
    const int mii = std::max(clusterMii(prepared, solution, c), target);
    sum += mii;
    maxMii = std::max(maxMii, mii);
  }
  const auto numClusters = static_cast<double>(prepared.clusters().size());
  return maxMii + 0.1 * (sum / numClusters);
}

double loadBalanceScore(const PreparedProblem& prepared,
                        const DeltaSolution& solution) {
  // Keeps the assignment from piling work on one cluster before the II
  // term starts to bite.
  const auto& pg = *prepared.problem().pg;
  double sum = 0;
  double maxLoad = 0;
  for (const ClusterId c : prepared.clusters()) {
    const double load =
        static_cast<double>(solution.usage(c).instructions) /
        std::max(1, pg.node(c).resources.issueSlots());
    sum += load;
    maxLoad = std::max(maxLoad, load);
  }
  const double mean = sum / static_cast<double>(prepared.clusters().size());
  return maxLoad - mean;
}

double wiringSlackScore(const PreparedProblem& prepared,
                        const DeltaSolution& solution) {
  // Every distinct real in-neighbor eats one of a cluster's few input-wire
  // selects, and a saturated cluster blocks all later assignments that
  // need to reach it — so saturation hurts most.
  const int maxIn = prepared.problem().constraints.maxInNeighbors;
  if (maxIn <= 0) return 0.0;
  double penalty = 0;
  for (const ClusterId c : prepared.clusters()) {
    const double used = static_cast<double>(solution.realInNeighborCount(c)) /
                        static_cast<double>(maxIn);
    penalty += used * used;
  }
  return penalty;
}

double evaluateObjective(const PreparedProblem& prepared,
                         DeltaSolution& solution) {
  const CostWeights& weights = prepared.options().weights;
  double total = 0;
  if (weights.iiEstimate != 0.0) {
    total += weights.iiEstimate * iiEstimateScore(prepared, solution);
  }
  if (weights.copyCount != 0.0) {
    total += weights.copyCount * static_cast<double>(solution.totalCopies());
  }
  if (weights.loadBalance != 0.0) {
    total += weights.loadBalance * loadBalanceScore(prepared, solution);
  }
  if (weights.criticalPath != 0.0) {
    total += weights.criticalPath * solution.criticalPathScore(prepared);
  }
  if (weights.wiringSlack != 0.0) {
    total += weights.wiringSlack * wiringSlackScore(prepared, solution);
  }
  return total;
}

}  // namespace hca::see
