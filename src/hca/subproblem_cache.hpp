#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/pattern_graph.hpp"
#include "mapper/mapper.hpp"
#include "see/engine.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

/// Memoization of single-level SEE sub-problems (one ladder rung of an
/// HcaDriver::run; the rung frees its cache when it returns).
///
/// The outer portfolio search re-solves the same 4-ish-node sub-problems
/// over and over: backtracking alternatives re-enter identical children,
/// and different heuristic profiles share every sub-problem whose options
/// they do not perturb. The SEE is deterministic, so a sub-problem is fully
/// described by the *content* of its inputs — pattern-graph shape, working
/// set, relay values, boundary ILIs, constraints, latency model, and a
/// fingerprint of the SeeOptions — and its SeeResult can be replayed from a
/// hash lookup. Keys are exact serialized content (compared byte-for-byte on
/// lookup), never a lossy hash, so a hit is guaranteed to byte-match a fresh
/// solve. The map is sharded: each shard has its own mutex, so concurrent
/// portfolio attempts rarely contend.
///
/// The problem path is deliberately *not* part of the key: identical
/// sub-problems at different positions of the problem tree (or in different
/// outer attempts) share one entry.
///
/// An entry is a ReplayRecord: exactly what the driver reads back of a
/// solve (verdict, failure reason, SeeStats and the first kMaxAlternatives
/// frontier states), each state a sub-problem-sized PartialSolution. A
/// fresh solve goes through the same record before the driver uses it, so
/// a hit and a miss run one code path.
namespace hca::core {

/// Hierarchical backtracking depth: when a child sub-problem turns out to
/// be infeasible, the driver tries up to this many assignments of the
/// parent's final search frontier (best first) before the parent itself
/// fails. A ReplayRecord keeps no more than that.
inline constexpr std::size_t kMaxAlternatives = 12;

/// What the driver replays of one SEE solve, and all a cache entry holds.
struct ReplayRecord {
  bool legal = false;
  std::string failureReason;
  see::SeeStats stats;
  /// The first kMaxAlternatives states of the final frontier, best first;
  /// empty when the solve failed.
  std::vector<see::PartialSolution> alternatives;

  ReplayRecord() = default;
  /// Keeps what replay reads of `result` and drops the rest: the
  /// duplicate `solution`, the failed partial, `failedItem` and the
  /// frontier tail past kMaxAlternatives. Implicit, so a SeeResult is
  /// accepted wherever a record is.
  ReplayRecord(see::SeeResult result);  // NOLINT(google-explicit-constructor)
};

/// Serializes everything the SEE result depends on, except the DDG itself
/// (fixed for the lifetime of one cache) and the problem path (irrelevant
/// to the result). `boundaryInputs`/`boundaryOutputs` must be the exact
/// wire lists used to extend `pg` with boundary nodes, in that order.
[[nodiscard]] std::string subproblemKey(
    const machine::PatternGraph& pg, const machine::PgConstraints& constraints,
    const ddg::LatencyModel& latency, int inWiresPerCluster,
    int outWiresPerCluster,
    const std::vector<mapper::WireValues>& boundaryInputs,
    const std::vector<mapper::WireValues>& boundaryOutputs,
    const std::vector<DdgNodeId>& workingSet,
    const std::vector<ValueId>& relayValues, const see::SeeOptions& options);

class SubproblemCache {
 public:
  /// Per-shard traffic counters for the observability layer. Shard-level
  /// granularity shows whether the key hash actually spreads the portfolio
  /// attempts (a hot shard = lock contention the aggregate would hide).
  struct ShardStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t entries = 0;
    std::int64_t bytes = 0;  ///< approximate resident footprint
  };

  /// `maxBytesPerShard` <= 0 = unbounded (the default — one run's
  /// sub-problem population is small). When set, every insert updates the
  /// shard's approximate byte tally (key plus an estimate of the
  /// record's vectors) and sheds oldest-inserted entries until the shard
  /// is back under its ceiling, counting each in ShardStats::evictions —
  /// the cache half of the driver's `HcaOptions::memoryBudgetBytes`
  /// contract: degrade hit rate, never OOM. Correctness is unaffected
  /// because evicted sub-problems are simply re-solved on the next miss.
  explicit SubproblemCache(int numShards = 16,
                           std::int64_t maxBytesPerShard = 0);

  SubproblemCache(const SubproblemCache&) = delete;
  SubproblemCache& operator=(const SubproblemCache&) = delete;

  /// Returns the cached record for `key`, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const ReplayRecord> lookup(
      const std::string& key) const;

  /// Inserts `record` if the key is absent and returns the stored entry
  /// (the first writer wins, so concurrent attempts all observe the same
  /// object — with a deterministic SEE both candidates are identical
  /// anyway).
  std::shared_ptr<const ReplayRecord> insert(const std::string& key,
                                             ReplayRecord record);

  [[nodiscard]] std::int64_t entries() const;

  /// Approximate resident bytes across all shards.
  [[nodiscard]] std::int64_t bytesUsed() const;

  /// Snapshot of the per-shard counters, in shard order.
  [[nodiscard]] std::vector<ShardStats> shardStats() const;

  /// Approximate heap footprint of one cache entry (key + record), the
  /// unit of the byte accounting above.
  [[nodiscard]] static std::int64_t approxEntryBytes(
      const std::string& key, const ReplayRecord& record);

 private:
  struct Shard {
    mutable Mutex mutex;
    /// Point lookups only; eviction walks `insertionOrder` below, so hash
    /// order never reaches a result.
    std::unordered_map<std::string, std::shared_ptr<const ReplayRecord>> map
        HCA_GUARDED_BY(mutex);
    /// Exactly the resident keys, in insertion order (eviction erases from
    /// both containers).
    std::vector<std::string> insertionOrder HCA_GUARDED_BY(mutex);
    std::int64_t hits HCA_GUARDED_BY(mutex) = 0;
    std::int64_t misses HCA_GUARDED_BY(mutex) = 0;
    std::int64_t evictions HCA_GUARDED_BY(mutex) = 0;
    std::int64_t bytes HCA_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] Shard& shardOf(const std::string& key) const;

  const std::int64_t maxBytesPerShard_;
  mutable std::vector<Shard> shards_;
};

}  // namespace hca::core
