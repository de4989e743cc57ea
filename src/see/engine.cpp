#include "see/engine.hpp"

#include <algorithm>
#include <memory>

#include "see/cost.hpp"
#include "see/feasibility.hpp"
#include "see/route_allocator.hpp"
#include "see/snapshot.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/str.hpp"

namespace hca::see {

SpaceExplorationEngine::SpaceExplorationEngine(SeeOptions options)
    : options_(options) {
  HCA_REQUIRE(options_.beamWidth >= 1, "beam width must be >= 1");
  HCA_REQUIRE(options_.candidateKeep >= 1, "candidate keep must be >= 1");
  HCA_REQUIRE(options_.maxRouteHops >= 1, "route hops must be >= 1");
}

namespace {
std::string describeItem(const Item& item) {
  return item.kind == Item::Kind::kNode
             ? strCat("node ", to_string(item.node))
             : strCat("relay of value ", to_string(item.value));
}

std::string describeGroup(const ItemGroup& group) {
  if (group.members.size() == 1) return describeItem(group.members.front());
  std::string out = "co-location group {";
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    if (i > 0) out += ", ";
    out += describeItem(group.members[i]);
  }
  return out + "}";
}

/// Recycling pool of DeltaSolution overlays for one search attempt: after
/// the first beam step every acquire rebases an existing object (memcpys of
/// dense state, list clears) — no allocation, and no copy of the parent's
/// lists, which is what `SeeStats::copiesAvoided` counts.
class DeltaPool {
 public:
  explicit DeltaPool(const PreparedProblem& prepared) : prepared_(prepared) {}

  DeltaSolution* acquire(const FlatSolution* parent) {
    DeltaSolution* d = nullptr;
    if (!free_.empty()) {
      d = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<DeltaSolution>());
      all_.back()->init(prepared_);
      d = all_.back().get();
    }
    d->reset(parent);
    return d;
  }

  void release(DeltaSolution* d) { free_.push_back(d); }

 private:
  const PreparedProblem& prepared_;
  std::vector<std::unique_ptr<DeltaSolution>> all_;
  std::vector<DeltaSolution*> free_;
};
}  // namespace

SeeResult SpaceExplorationEngine::run(const SeeProblem& problem,
                                      const CancellationToken* cancel) const {
  SeeResult result = runOnce(problem, options_, cancel);
  if (result.legal) return result;
  if (cancel != nullptr && cancel->cancelled()) return result;
  // Diversification ladder (part of the node-filter design): a narrower,
  // route-heavier search sometimes reaches a legal corner of the space the
  // scored beam pruned away. Statistics accumulate across attempts.
  std::vector<SeeOptions> ladder;
  {
    SeeOptions greedy = options_;
    greedy.beamWidth = 1;
    greedy.candidateKeep = 1;
    greedy.eagerRouting = false;
    ladder.push_back(greedy);
    SeeOptions deeper = greedy;
    deeper.beamWidth = 2;
    deeper.candidateKeep = 2;
    deeper.maxRouteHops = options_.maxRouteHops + 2;
    ladder.push_back(deeper);
    SeeOptions balanced = options_;
    balanced.eagerRouting = !options_.eagerRouting;
    ladder.push_back(balanced);
  }
  for (const SeeOptions& attempt : ladder) {
    if (cancel != nullptr && cancel->cancelled()) return result;
    SeeResult retry = runOnce(problem, attempt, cancel);
    retry.stats.merge(result.stats);
    result = std::move(retry);
    if (result.legal) return result;
  }
  return result;
}

SeeResult SpaceExplorationEngine::runOnce(
    const SeeProblem& problem, const SeeOptions& options,
    const CancellationToken* cancel) const {
  const PreparedProblem prepared(problem, options);

  SeeResult result;
  // Double-buffered snapshot arenas: the live frontier's snapshots sit in
  // `cur`; survivors of a step are flattened into `nxt` (reading their
  // parents from `cur`), then `cur` is reset — its chunks are retained, so
  // steady-state steps allocate nothing — and the buffers swap.
  MonotonicArena arenaA;
  MonotonicArena arenaB;
  MonotonicArena* cur = &arenaA;
  MonotonicArena* nxt = &arenaB;
  DeltaPool pool(prepared);
  const FeasibilityOracle& oracle = prepared.oracle();
  RouteScratch routeScratch;

  const auto finishStats = [&] {
    result.stats.arenaBytesPeak =
        std::max(static_cast<std::int64_t>(arenaA.peakBytesUsed()),
                 static_cast<std::int64_t>(arenaB.peakBytesUsed()));
    result.stats.oracleRejects += routeScratch.hopRejects();
  };

  std::vector<const FlatSolution*> frontier;
  frontier.push_back(FlatSolution::initial(prepared, *cur));
  ++result.stats.snapshotsMaterialized;

  // Per-step work vectors, hoisted out of the loop so their capacity is
  // reused across steps (zero steady-state allocation).
  std::vector<DeltaSolution*> scored;
  std::vector<DeltaSolution*> next;
  std::vector<int> parentOf;  // parallel to next: index into frontier
  std::vector<std::size_t> order;
  std::vector<char> isParentBest;
  std::vector<char> selected;
  std::vector<std::size_t> chosen;
  std::vector<std::uint64_t> seenSigs;
  std::vector<const FlatSolution*> survivors;
  // Membership-only signature set (frontiers are small; a linear scan
  // beats hashing and allocates nothing).
  const auto insertSig = [&seenSigs](std::uint64_t sig) {
    if (std::find(seenSigs.begin(), seenSigs.end(), sig) != seenSigs.end()) {
      return false;
    }
    seenSigs.push_back(sig);
    return true;
  };

  for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
    const ItemGroup& group = prepared.items()[gi];
    if (cancel != nullptr && cancel->cancelled()) {
      result.legal = false;
      result.failedItem = group.members.front();
      result.failureReason = "cancelled";
      frontier.front()->toPartial(prepared, &result.solution);
      finishStats();
      return result;
    }
    if (options.maxBeamSteps > 0 &&
        result.stats.statesExplored >= options.maxBeamSteps) {
      result.legal = false;
      result.failedItem = group.members.front();
      result.failureReason =
          strCat("beam step budget exhausted (", options.maxBeamSteps, ")");
      frontier.front()->toPartial(prepared, &result.solution);
      finishStats();
      return result;
    }
    if (options.arenaBudgetBytes > 0 &&
        static_cast<std::int64_t>(arenaA.peakBytesUsed() +
                                  arenaB.peakBytesUsed()) >
            options.arenaBudgetBytes) {
      result.legal = false;
      result.failedItem = group.members.front();
      result.failureReason =
          strCat("memory budget exceeded (", options.arenaBudgetBytes,
                 " arena bytes)");
      frontier.front()->toPartial(prepared, &result.solution);
      finishStats();
      return result;
    }
    next.clear();
    parentOf.clear();
    int parentIndex = -1;
    for (const FlatSolution* state : frontier) {
      ++parentIndex;
      ++result.stats.statesExplored;
      // Enumerate candidates via isAssignable, score survivors. With eager
      // routing, clusters that are only reachable through relays are
      // offered too (at their true copy cost).
      scored.clear();
      // Feasibility oracle: with eager routing a direct-infeasible cluster
      // may still be routable, so only provably-hopeless clusters (dead or
      // not a cluster node — the route allocator rejects those with zero
      // side effects) are skipped; otherwise the full direct mask applies.
      // Skips mirror the counter increments of the code path they replace.
      const bool eagerRoutes =
          options.eagerRouting && options.enableRouteAllocator;
      const std::uint64_t feasible =
          eagerRoutes ? oracle.aliveMask()
                      : oracle.directFeasibleMask(*state, gi);
      for (const ClusterId c : prepared.clusters()) {
        if ((feasible & detail::pgBit(c)) == 0) {
          ++result.stats.copiesAvoided;
          ++result.stats.oracleRejects;
          if (eagerRoutes) ++result.stats.routeFailures;
          continue;
        }
        DeltaSolution* candidate = pool.acquire(state);
        ++result.stats.copiesAvoided;
        bool direct = true;
        for (const Item& item : group.members) {
          if (!canAssign(prepared, *candidate, item, c)) {
            direct = false;
            break;
          }
          assign(prepared, *candidate, item, c);
        }
        if (direct) {
          ++result.stats.candidatesEvaluated;
          candidate->setObjective(evaluateObjective(prepared, *candidate));
          scored.push_back(candidate);
        } else if (eagerRoutes) {
          candidate->reset(state);  // discard the partial direct attempt
          int routed = 0;
          if (!routeAssignGroup(prepared, *candidate, group, c, &routed,
                                &routeScratch)) {
            ++result.stats.routeFailures;
            pool.release(candidate);
            continue;
          }
          ++result.stats.candidatesEvaluated;
          result.stats.routedOperands += routed;
          candidate->setObjective(evaluateObjective(prepared, *candidate));
          scored.push_back(candidate);
        } else {
          pool.release(candidate);
        }
      }
      if (scored.empty() && options.enableRouteAllocator &&
          !options.eagerRouting) {
        // No candidates action: try routing onto each cluster. Dead and
        // non-cluster nodes fail routeAssignGroup with zero side effects,
        // so the oracle skips them before the acquire (mirroring the
        // failure-path counters).
        ++result.stats.routeInvocations;
        int routed = 0;
        for (const ClusterId c : prepared.clusters()) {
          if ((oracle.aliveMask() & detail::pgBit(c)) == 0) {
            ++result.stats.copiesAvoided;
            ++result.stats.routeFailures;
            ++result.stats.oracleRejects;
            continue;
          }
          DeltaSolution* candidate = pool.acquire(state);
          ++result.stats.copiesAvoided;
          if (!routeAssignGroup(prepared, *candidate, group, c, &routed,
                                &routeScratch)) {
            ++result.stats.routeFailures;
            pool.release(candidate);
            continue;
          }
          ++result.stats.candidatesEvaluated;
          candidate->setObjective(evaluateObjective(prepared, *candidate));
          scored.push_back(candidate);
        }
        result.stats.routedOperands += routed;
      }
      // Candidate filter: keep the best few expansions of this state.
      std::sort(scored.begin(), scored.end(),
                [](const DeltaSolution* a, const DeltaSolution* b) {
                  return a->objective() < b->objective();
                });
      const auto keep = std::min<std::size_t>(
          scored.size(), static_cast<std::size_t>(options.candidateKeep));
      result.stats.candidateRejections +=
          static_cast<std::int64_t>(scored.size() - keep);
      for (std::size_t i = 0; i < scored.size(); ++i) {
        if (i < keep) {
          next.push_back(scored[i]);
          parentOf.push_back(parentIndex);
        } else {
          pool.release(scored[i]);
        }
      }
    }

    if (next.empty()) {
      result.legal = false;
      result.failedItem = group.members.front();
      result.failureReason =
          strCat("no candidates for ", describeGroup(group),
                 " in any frontier state (communication patterns exhausted)");
      HCA_DEBUG("SEE failed: " << result.failureReason);
      frontier.front()->toPartial(prepared, &result.solution);
      finishStats();
      return result;
    }

    // Node filter: keep the beam, deduped, but parent-diverse — the best
    // child of every surviving parent is retained first so a feasible
    // lineage is never pruned purely on score, then the remaining slots go
    // to the globally best states.
    order.resize(next.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return next[a]->objective() < next[b]->objective();
    });
    isParentBest.assign(frontier.size(), 0);
    selected.assign(next.size(), 0);
    chosen.clear();
    seenSigs.clear();
    for (const std::size_t i : order) {  // best child per parent
      const int parent = parentOf[i];
      if (isParentBest[static_cast<std::size_t>(parent)] != 0) continue;
      isParentBest[static_cast<std::size_t>(parent)] = 1;
      if (!insertSig(next[i]->signature())) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    for (const std::size_t i : order) {  // fill up with global best
      if (static_cast<int>(chosen.size()) >= options.beamWidth) break;
      if (selected[i] != 0) continue;
      if (!insertSig(next[i]->signature())) continue;
      selected[i] = 1;
      chosen.push_back(i);
    }
    std::sort(chosen.begin(), chosen.end(), [&](std::size_t a, std::size_t b) {
      return next[a]->objective() < next[b]->objective();
    });
    if (static_cast<int>(chosen.size()) > options.beamWidth) {
      chosen.resize(static_cast<std::size_t>(options.beamWidth));
    }
    // Materialize the survivors into the spare arena (their parents stay
    // readable in `cur` until after the flatten), then retire `cur`.
    survivors.clear();
    for (const std::size_t i : chosen) {
      survivors.push_back(FlatSolution::fromDelta(*next[i], *nxt));
      ++result.stats.snapshotsMaterialized;
    }
    result.stats.statesPruned +=
        static_cast<std::int64_t>(next.size() - survivors.size());
    for (DeltaSolution* d : next) pool.release(d);
    frontier.assign(survivors.begin(), survivors.end());
    cur->reset();
    std::swap(cur, nxt);
  }

  result.legal = true;
  result.alternatives.resize(frontier.size());
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    frontier[i]->toPartial(prepared, &result.alternatives[i]);
  }
  result.solution = result.alternatives.front();
  finishStats();
  return result;
}

}  // namespace hca::see
