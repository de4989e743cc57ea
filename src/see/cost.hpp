#pragma once

#include "see/prepared.hpp"

/// The SEE objective (paper Section 3: "the assignment n -> c is evaluated
/// by an objective function based on a collection of cost criteria"): a
/// fixed weighted sum (CostWeights) of five criteria over a candidate
/// state, accumulated in this order with zero-weight terms skipped. Lower
/// is better.
///
///  1. ii-estimate — the paper's main cost factor (Section 4.2): the
///     per-cluster MII estimate, max plus a scaled-down average, clamped
///     to the loop's target II.
///  2. copy-count — inter-cluster copies (arc/value pairs).
///  3. load-balance — spread of issue-slot occupancy (max - mean).
///  4. critical-path — copies on intra-iteration dependences, weighted by
///     how tall the consumer still is.
///  5. wiring-slack — consumed reconfiguration budget, quadratic in the
///     per-cluster in-neighbor utilization.
namespace hca::see {

class DeltaSolution;

/// The per-cluster MII estimate: issue slots (instructions plus one
/// receive per distinct incoming value), functional units, and the copy
/// pressure the Mapper will have to serialize over the cluster's wires.
[[nodiscard]] int clusterMii(const PreparedProblem& prepared,
                             const DeltaSolution& solution, ClusterId cluster);

/// Criterion 1 (see above).
[[nodiscard]] double iiEstimateScore(const PreparedProblem& prepared,
                                     const DeltaSolution& solution);
/// Criterion 3: max - mean issue-slot load over the clusters.
[[nodiscard]] double loadBalanceScore(const PreparedProblem& prepared,
                                      const DeltaSolution& solution);
/// Criterion 5: sum of squared in-neighbor utilizations.
[[nodiscard]] double wiringSlackScore(const PreparedProblem& prepared,
                                      const DeltaSolution& solution);

/// The weighted objective under `prepared.options().weights`. Takes the
/// delta mutably because the critical-path term sorts its additions.
[[nodiscard]] double evaluateObjective(const PreparedProblem& prepared,
                                       DeltaSolution& solution);

}  // namespace hca::see
