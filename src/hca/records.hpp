#pragma once

#include <algorithm>
#include <cstdint>

#include "mapper/problem_record.hpp"
#include "see/problem.hpp"

/// Per-sub-problem records kept by the HCA driver. They are the audit trail
/// of the decomposition: the coherency checker re-derives value routability
/// from them, and the MII computation reads the per-cluster summaries and
/// wire pressures. The record structs themselves live in
/// mapper/problem_record.hpp (the baselines produce the same shape without
/// depending on the driver); this header re-exports the core aliases and
/// owns the driver-wide search statistics.
namespace hca::core {

using mapper::ClusterSummary;
using mapper::ProblemRecord;

/// Search-effort statistics of one full `HcaDriver::run` — the *aggregate*
/// over every (target II, heuristic profile) attempt of the outer sweep,
/// including the degraded-bandwidth fallback's own sweep when it runs. The
/// driver solves each attempt with a private HcaStats and merges it into the
/// returned result after the sweep, so every thread count produces the same
/// aggregation semantics.
struct HcaStats {
  /// SEE sub-problems solved across all attempts. Cache hits count too:
  /// a hit replays the recorded result of an identical solve.
  int problemsSolved = 0;
  /// Runner-up assignments tried after a child sub-problem failed, summed
  /// over all attempts (each attempt stops backtracking after 256).
  int backtrackAttempts = 0;
  /// (target II, profile) attempts *started* across the whole run; an
  /// attempt that never started (past the winner or the deadline) is not
  /// counted anywhere. On a legal 1-thread sweep this is the 1-based index
  /// of the winning attempt; with more threads the sweep may also start
  /// attempts past the winner before they are cancelled.
  int outerAttempts = 0;
  /// Target II of the successful attempt; 0 when no legal clusterization
  /// was found (historically this reported the *last* attempt's target even
  /// on failure).
  int achievedTargetIi = 0;
  /// Started attempts aborted before producing a genuine verdict: attempts
  /// soft-cancelled mid-search because a lower-index attempt already
  /// produced a legal result or threw (only possible with more than one
  /// thread), and attempts cut short by the run's deadline
  /// (HcaOptions::deadlineMs). Attempts that never started are not counted.
  int attemptsCancelled = 0;
  std::int64_t statesExplored = 0;     ///< SEE frontier states expanded
  std::int64_t candidatesEvaluated = 0;
  std::int64_t routeInvocations = 0;   ///< SEE no-candidates actions
  /// Sub-problem cache traffic. On a hit the cached SEE statistics are
  /// still added to the counters above, so the aggregate counters are
  /// byte-identical with the cache on or off — the cache only changes
  /// wall-clock.
  std::int64_t cacheHits = 0;
  std::int64_t cacheMisses = 0;
  /// Max values time-sharing one wire at any level — recomputed from the
  /// *surviving* records of the winning attempt (not merged across failed
  /// attempts, whose rolled-back pressure is meaningless).
  int maxWirePressure = 0;
  /// SEE candidate clusters considered without copying their parent state
  /// (see SeeStats::copiesAvoided).
  std::int64_t seeCopiesAvoided = 0;
  /// Flat snapshots written to the SEE search arenas.
  std::int64_t seeSnapshotsMaterialized = 0;
  /// Largest per-attempt snapshot-arena high-water mark seen by any SEE
  /// solve of the run.
  std::int64_t seeArenaBytesPeak = 0;
  /// SEE candidates rejected by the feasibility oracle before any solution
  /// state was materialized (see SeeStats::oracleRejects).
  std::int64_t seeOracleRejects = 0;

  /// Folds another attempt's counters into this one. `achievedTargetIi`
  /// and `maxWirePressure` are properties of the winning attempt and are
  /// deliberately left alone.
  void merge(const HcaStats& other) {
    problemsSolved += other.problemsSolved;
    backtrackAttempts += other.backtrackAttempts;
    outerAttempts += other.outerAttempts;
    attemptsCancelled += other.attemptsCancelled;
    statesExplored += other.statesExplored;
    candidatesEvaluated += other.candidatesEvaluated;
    routeInvocations += other.routeInvocations;
    cacheHits += other.cacheHits;
    cacheMisses += other.cacheMisses;
    seeCopiesAvoided += other.seeCopiesAvoided;
    seeSnapshotsMaterialized += other.seeSnapshotsMaterialized;
    seeArenaBytesPeak = std::max(seeArenaBytesPeak, other.seeArenaBytesPeak);
    seeOracleRejects += other.seeOracleRejects;
  }

  /// Folds one SEE solve's search counters in (the caller counts the
  /// sub-problem in problemsSolved).
  void addSee(const see::SeeStats& see) {
    statesExplored += see.statesExplored;
    candidatesEvaluated += see.candidatesEvaluated;
    routeInvocations += see.routeInvocations;
    seeCopiesAvoided += see.copiesAvoided;
    seeSnapshotsMaterialized += see.snapshotsMaterialized;
    seeArenaBytesPeak = std::max(seeArenaBytesPeak, see.arenaBytesPeak);
    seeOracleRejects += see.oracleRejects;
  }
};

}  // namespace hca::core
