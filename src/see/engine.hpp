#pragma once

#include <string>

#include "see/partial_solution.hpp"
#include "see/prepared.hpp"
#include "see/problem.hpp"
#include "support/thread_pool.hpp"

/// The Space Exploration Engine (paper Section 3, Figures 4 and 5).
///
/// A local-scope beam search: items (working-set nodes, relay values) are
/// taken from a priority list; for every frontier state and every cluster
/// the `isAssignable` check runs, surviving candidates are scored by the
/// objective, the *candidate filter* keeps the best few per state, and the
/// *node filter* prunes the merged frontier back to the beam width. When a
/// state has no candidate at all, the *no candidates action* invokes the
/// Route Allocator.
namespace hca::see {

struct SeeResult {
  bool legal = false;
  PartialSolution solution;
  /// The final frontier (best first, solution == alternatives.front()):
  /// callers that discover deeper infeasibilities (the hierarchical driver)
  /// can fall back to the runner-up assignments.
  std::vector<PartialSolution> alternatives;
  SeeStats stats;
  /// On failure: the item no frontier state could place.
  Item failedItem;
  std::string failureReason;
};

class SpaceExplorationEngine {
 public:
  explicit SpaceExplorationEngine(SeeOptions options = {});

  /// Runs the beam search. A failed search is retried through a fixed
  /// ladder of more conservative profiles (greedy beam, deeper routing,
  /// flipped eager routing) before the result is reported illegal; the
  /// counters of every rung accumulate. When `cancel` is non-null the loop
  /// polls it at every priority-list step and, once it flips, unwinds
  /// immediately with an illegal result (failureReason = "cancelled"). A
  /// result with legal == true is always a complete, cancellation-free
  /// computation.
  [[nodiscard]] SeeResult run(const SeeProblem& problem,
                              const CancellationToken* cancel = nullptr) const;

  [[nodiscard]] const SeeOptions& options() const { return options_; }

 private:
  /// One beam search under `options`: pooled copy-on-write DeltaSolution
  /// candidates against arena-backed FlatSolution snapshots, with zero
  /// steady-state heap allocation.
  [[nodiscard]] SeeResult runOnce(const SeeProblem& problem,
                                  const SeeOptions& options,
                                  const CancellationToken* cancel) const;

  SeeOptions options_;
};

}  // namespace hca::see
