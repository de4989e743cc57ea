#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ddg/ddg.hpp"
#include "hca/records.hpp"
#include "hca/subproblem_cache.hpp"
#include "machine/dspfabric.hpp"
#include "machine/reconfig.hpp"
#include "see/engine.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

/// Hierarchical Cluster Assignment (paper Section 4).
///
/// The driver decomposes the ICA problem along the interconnect hierarchy:
/// at each level it runs the Space Exploration Engine on a 4-ish-node
/// Pattern Graph (completed with the boundary input/output nodes derived
/// from the parent's Inter-Level Interfaces), hands the resulting copy flow
/// to the Mapper — which distributes copies over the physical wires and
/// produces the children's ILIs — and recurses until the computation-node
/// level is reached. Pass-through values (created by route allocation at an
/// outer level) travel down as relay values and are parked on a concrete CN.
namespace hca::core {

/// How a run that cannot produce a legal mapping reports it. The policy
/// never changes what is searched: both walk the same ladder and return
/// the same result whenever one is legal.
enum class FailurePolicy {
  /// Historical contract: invalid input throws, an unsolvable problem
  /// returns legal=false with only failureReason set.
  kStrict,
  /// Never throw: every failure comes back as legal=false with a
  /// structured HcaFailureReport.
  kDegrade,
};

enum class FailureCause {
  kInvalidInput,        ///< the DDG or options failed validation
  kDisconnectedFabric,  ///< the fault set leaves the fabric unusable
  kDeadlineExpired,     ///< the wall-clock budget ran out first
  kNoLegalMapping,      ///< every rung of the ladder was exhausted
  kInternalError,       ///< an invariant violation inside the driver
};

[[nodiscard]] const char* to_string(FailureCause cause);

/// Structured description of a failed kDegrade run: what gave out, where
/// in the problem tree, and which fallback rungs were tried on the way.
struct HcaFailureReport {
  FailureCause cause = FailureCause::kNoLegalMapping;
  /// Interconnect level of the sub-problem that could not be solved
  /// (-1 when the failure is not tied to one sub-problem).
  int level = -1;
  std::vector<int> subproblemPath;
  std::string message;
  /// Human-readable labels of the escalation rungs that ran, in order.
  std::vector<std::string> escalationsTried;

  [[nodiscard]] std::string toString() const;
};

struct HcaOptions {
  HcaOptions() {
    // The hierarchical problems are small (4-node pattern graphs); a
    // wider-than-default beam is cheap and pays off in legality.
    see.beamWidth = 16;
    see.candidateKeep = 10;
  }

  see::SeeOptions see;
  /// Outer search loop: like modulo scheduling's II search, the driver
  /// first maps at the loop's iniMII and, when no legal clusterization is
  /// found, re-runs with one more cycle of target slack (which lets the
  /// cost function pack clusters harder and relaxes the wiring), up to
  /// iniMII + targetIiSlack. 0 = single attempt at iniMII.
  int targetIiSlack = 6;
  /// Heuristic profiles tried per target II (chain grouping on/off, beam
  /// variants). 1 = only the configured SeeOptions.
  int searchProfiles = 5;
  /// Portfolio parallelism of the outer sweep: every (target II, profile)
  /// attempt runs as an independent task on a thread pool of this size,
  /// clamped to hardware_concurrency. 0 = hardware_concurrency; 1 runs the
  /// same sweep in order on the calling thread, with no pool. The returned
  /// result is deterministic and independent of the thread count (the
  /// lowest-(target, profile) legal attempt wins; attempts that can no
  /// longer win are soft-cancelled, and attempts never started are not
  /// counted).
  int numThreads = 1;
  /// Memoize SEE sub-problem results across outer attempts and backtracking
  /// alternatives (see subproblem_cache.hpp). Results are byte-identical
  /// with the cache on or off; the cache only saves wall-clock.
  bool enableSubproblemCache = true;
  /// See FailurePolicy. Only the failure path differs: a legal result is
  /// byte-identical under kStrict and kDegrade.
  FailurePolicy failurePolicy = FailurePolicy::kStrict;
  /// Wall-clock budget for the whole run in milliseconds; 0 = unlimited.
  /// On expiry every in-flight SEE search unwinds at its next cancellation
  /// poll and the run returns what it has (a legal result from an earlier
  /// rung, or — under kDegrade — a kDeadlineExpired report).
  int deadlineMs = 0;
  /// Per-attempt cap on SEE frontier expansions, applied on top of every
  /// search profile (see SeeOptions::maxBeamSteps); 0 = unlimited.
  int maxBeamSteps = 0;
  /// Span tracer for this run (see support/trace.hpp): one span per outer
  /// attempt / fallback rung / sub-problem / SEE invocation / mapper pass,
  /// nested like the problem tree. Not owned; must outlive the run.
  /// nullptr = tracing off — unless HCA_TRACE_FORCE is set in the
  /// environment, in which case the process-wide forced tracer is used.
  Tracer* tracer = nullptr;
  /// Run the registered invariant checks (verify/verify.hpp) between
  /// pipeline stages: the per-record checks after every successful mapper
  /// pass, the whole-result checks after every legal attempt. A violation
  /// is a driver bug and throws InternalError (which kDegrade folds into a
  /// kInternalError failure report). The flag propagates into the
  /// degraded-bandwidth rung, so its results are verified too.
  bool verifyEach = false;
  /// Restricts verifyEach to these check ids (empty = every registered
  /// check). Unknown ids throw InvalidArgumentError at the first use.
  std::vector<std::string> verifyChecks;
  /// External cancellation (SIGINT/SIGTERM via support/signals.hpp).
  /// Chained underneath the run's deadline token, so tripping it unwinds
  /// the search exactly like a deadline expiry: every in-flight SEE search
  /// stops at its next poll and the run returns best-so-far. Not owned;
  /// may be null. It never changes results, only when the run stops.
  const CancellationToken* externalCancel = nullptr;
  /// Soft memory ceiling for the run in bytes; 0 = unlimited. Half the
  /// budget bounds the sub-problem cache (oldest entries are shed, trading
  /// hit rate for footprint), half becomes each SEE solve's
  /// SeeOptions::arenaBudgetBytes — an attempt that would blow it reports
  /// "memory budget exceeded" and the escalation ladder re-plans (the
  /// degraded-bandwidth rung shrinks per-problem state) instead of the
  /// process OOMing. Deterministic: the ceiling never depends on thread
  /// count or wall-clock, so the result stays independent of both.
  std::int64_t memoryBudgetBytes = 0;
};

struct RelayPlacement {
  ValueId value;
  CnId cn;
};

// HcaStats lives in records.hpp (it is part of the run's audit trail).

struct HcaResult {
  bool legal = false;
  std::string failureReason;

  /// Final placement: DDG node -> computation node (invalid for consts).
  std::vector<CnId> assignment;
  std::vector<RelayPlacement> relays;

  /// Complete reconfiguration stream (all levels).
  machine::ReconfigurationProgram reconfig;

  std::vector<std::unique_ptr<ProblemRecord>> records;
  /// On failure: the description of the sub-problem that could not be
  /// solved (its records entry may have been rolled back by backtracking).
  std::unique_ptr<ProblemRecord> failureRecord;
  HcaStats stats;
  /// Named observability counters and histograms (per-level SEE pressure,
  /// cache traffic, mapper distributions, pool latencies, ladder activity);
  /// aggregated across every attempt of the run exactly like `stats`. See
  /// DESIGN.md section 4e for the name catalogue. Serialized by
  /// `runReportJson()` (hca/report.hpp) and printed by `hcac --stats`.
  MetricsRegistry metrics;

  /// Which ladder rung produced the result: empty (primary sweep) or
  /// "degraded-bandwidth".
  std::string fallbackUsed;
  /// kDegrade only: set iff !legal — the structured failure description.
  std::unique_ptr<HcaFailureReport> failure;
};

class HcaDriver {
 public:
  HcaDriver(machine::DspFabricModel model, HcaOptions options = {});

  [[nodiscard]] HcaResult run(const ddg::Ddg& ddg) const;

  [[nodiscard]] const machine::DspFabricModel& model() const { return model_; }

 private:
  struct Boundary {
    std::vector<mapper::WireValues> inputs;
    std::vector<mapper::WireValues> outputs;
  };

  /// Pre-resolved handles into one attempt's `MetricsRegistry` for one
  /// hierarchy level: `std::map` node addresses are stable, so resolving
  /// the `.L<level>` names once per attempt keeps the per-sub-problem
  /// instrumentation down to raw pointer bumps (no string building or map
  /// lookups on the solve hot path).
  struct LevelMetrics {
    std::int64_t* cacheHits;
    std::int64_t* cacheMisses;
    std::int64_t* seeProblems;
    std::int64_t* seeExpansions;
    std::int64_t* seePruned;
    std::int64_t* seeCandidates;
    std::int64_t* seeCandidateRejections;
    std::int64_t* seeRouteInvocations;
    std::int64_t* seeRouteFailures;
    std::int64_t* seeRoutedOperands;
    std::int64_t* seeCopiesAvoided;
    std::int64_t* seeSnapshots;
    std::int64_t* seeOracleRejects;
    std::int64_t* hcaBacktracks;
    std::int64_t* mapperFailures;
    Histogram* mapperMaxValuesPerWire;
    Histogram* mapperWireUtilization;
    Histogram* mapperCopiesPerIli;
  };

  /// Per-attempt execution context threaded through the recursion: the
  /// attempt's SEE options, the rung's sub-problem cache (may be null),
  /// the portfolio's soft-cancellation token (may be null), the run's
  /// span tracer (may be null = tracing off) and the attempt's per-level
  /// metric handles (indexed by hierarchy level).
  struct SolveContext {
    const see::SeeOptions& seeOptions;
    SubproblemCache* cache = nullptr;
    const CancellationToken* cancel = nullptr;
    Tracer* tracer = nullptr;
    const std::vector<LevelMetrics>* levels = nullptr;
  };

  /// SEE options of one (target II, heuristic profile) outer attempt, with
  /// `memoryBudgetBytes` (when set) folded in: half the run budget becomes
  /// the per-solve arena ceiling.
  [[nodiscard]] see::SeeOptions profileOptions(int target, int profile) const;

  /// Runs one complete outer attempt (a full hierarchical solve). On
  /// success the result is validated and its stats finalized.
  [[nodiscard]] HcaResult runAttempt(const ddg::Ddg& ddg,
                                     const std::vector<DdgNodeId>& rootWs,
                                     int target, int profile,
                                     SubproblemCache* cache,
                                     const CancellationToken* cancel) const;

  /// The outer sweep: every (target II, profile) attempt in index order
  /// `(target - iniMii) * profiles + profile`. With one effective thread
  /// (`numThreads` clamped to the attempt count) the attempts run in order
  /// on the calling thread; above that they are tasks on a pool of that
  /// size. A shared horizon — the lowest index that produced a legal result
  /// or threw — soft-cancels every later attempt, and the first such
  /// attempt in index order decides the sweep: its result is returned or
  /// its exception rethrown, so the outcome never depends on the thread
  /// count. Per-attempt tokens chain to `deadline` (may be null).
  [[nodiscard]] HcaResult runSweep(const ddg::Ddg& ddg,
                                   const std::vector<DdgNodeId>& rootWs,
                                   int iniMii, SubproblemCache* cache,
                                   const CancellationToken* deadline) const;

  /// run() minus the input validation / report wrapping: computes iniMii,
  /// arms the deadline and walks the ladder.
  [[nodiscard]] HcaResult runChecked(const ddg::Ddg& ddg) const;

  /// One ladder rung on this driver's machine: the outer sweep with a
  /// fresh sub-problem cache (unless disabled). The cache's per-shard
  /// counters are prepended to `cacheShards`, then the cache is freed, so
  /// no two rungs' caches are alive at once.
  [[nodiscard]] HcaResult runRung(
      const ddg::Ddg& ddg, const std::vector<DdgNodeId>& rootWs, int iniMii,
      const CancellationToken* deadline,
      std::vector<SubproblemCache::ShardStats>* cacheShards) const;

  /// The escalation ladder, the same under both failure policies: primary
  /// sweep, then the degraded-bandwidth re-run (a runRung on a copy of the
  /// driver with N=M=K clamped to 2). Each rung is counted once in
  /// `ladder.rung.*`. Returns the first legal result, or the primary
  /// failure annotated with a report under kDegrade.
  [[nodiscard]] HcaResult runLadder(const ddg::Ddg& ddg,
                                    const std::vector<DdgNodeId>& rootWs,
                                    int iniMii,
                                    const CancellationToken* deadline) const;

  /// Solves the sub-problem at `path`; returns false (and fills
  /// result.failureReason) on the first illegality.
  bool solve(const ddg::Ddg& ddg, const std::vector<int>& path,
             std::vector<DdgNodeId> workingSet,
             std::vector<ValueId> relayValues, const Boundary& boundary,
             const SolveContext& ctx, HcaResult& result) const;

  machine::DspFabricModel model_;
  HcaOptions options_;
  /// Resolved at construction: options_.tracer, or the HCA_TRACE_FORCE
  /// process tracer, or nullptr (tracing off).
  Tracer* tracer_ = nullptr;
};

}  // namespace hca::core
