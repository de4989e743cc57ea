#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>

#include "ddg/builder.hpp"
#include "ddg/kernels.hpp"
#include "machine/rcp.hpp"
#include "see/cost.hpp"
#include "see/engine.hpp"
#include "see/route_allocator.hpp"
#include "see/snapshot.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"

namespace hca::see {
namespace {

using ddg::DdgBuilder;

/// All instruction nodes of a DDG as a working set.
std::vector<DdgNodeId> fullWorkingSet(const ddg::Ddg& ddg) {
  std::vector<DdgNodeId> ws;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg::isInstruction(ddg.node(DdgNodeId(v)).op)) ws.emplace_back(v);
  }
  return ws;
}

/// Cluster of `node` in `solution`, which is indexed by working-set
/// position (invalid outside the working set).
ClusterId clusterOf(const SeeProblem& problem, const PartialSolution& solution,
                    DdgNodeId node) {
  const auto& ws = problem.workingSet;
  const auto it = std::find(ws.begin(), ws.end(), node);
  if (it == ws.end()) return ClusterId::invalid();
  return solution.wsCluster(static_cast<int>(it - ws.begin()));
}

/// A small diamond DDG: two loads feed an add that is stored.
ddg::Ddg diamondDdg() {
  DdgBuilder b;
  const auto a = b.load(b.cst(0), 0, "a");
  const auto c = b.load(b.cst(1), 0, "c");
  const auto s = b.add(a, c, "s");
  b.store(b.cst(2), s, 0, "out");
  return b.finish();
}

/// Fully-connected PG with `n` clusters of one CN each.
machine::PatternGraph smallPg(int n) {
  machine::PatternGraph pg;
  for (int i = 0; i < n; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  return pg;
}

SeeProblem baseProblem(const ddg::Ddg& ddg, const machine::PatternGraph& pg) {
  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  problem.constraints.maxInNeighbors = -1;
  problem.inWiresPerCluster = 2;
  problem.outWiresPerCluster = 2;
  return problem;
}

/// A hand-driven search state: an arena-backed snapshot plus a delta over
/// it. Edits go into `delta`; commit() flattens them into a new snapshot.
struct SearchState {
  explicit SearchState(const PreparedProblem& p) : prepared(p) {
    flat = FlatSolution::initial(prepared, arena);
    delta.init(prepared);
    delta.reset(flat);
  }
  void commit() {
    flat = FlatSolution::fromDelta(delta, arena);
    delta.reset(flat);
  }
  /// The current state (pending edits included) as a result record.
  PartialSolution result() {
    commit();
    PartialSolution out;
    flat->toPartial(prepared, &out);
    return out;
  }

  const PreparedProblem& prepared;
  MonotonicArena arena;
  const FlatSolution* flat = nullptr;
  DeltaSolution delta;
};

/// The first priority-list node item whose op is `op`.
Item itemWithOp(const PreparedProblem& prepared, ddg::Op op) {
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      if (item.kind == Item::Kind::kNode &&
          prepared.problem().ddg->node(item.node).op == op) {
        return item;
      }
    }
  }
  ADD_FAILURE() << "no item with the requested op";
  return {};
}

// --- PreparedProblem ----------------------------------------------------------

TEST(PreparedTest, PriorityOrderIsHeightDescending) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  const auto problem = baseProblem(ddg, pg);
  SeeOptions noChains;
  noChains.chainGrouping = false;  // keep every item a singleton
  const PreparedProblem prepared(problem, noChains);
  const auto& items = prepared.items();
  ASSERT_EQ(items.size(), 4u);  // 2 loads, add, store (all singletons)
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    ASSERT_EQ(items[i].members.size(), 1u);
    EXPECT_GE(prepared.height(items[i].members[0].node),
              prepared.height(items[i + 1].members[0].node));
  }
  // Loads (height lat(load)+lat(add)+...) come before the store (height 0).
  EXPECT_EQ(ddg.node(items.back().members[0].node).op, ddg::Op::kStore);
}

TEST(PreparedTest, MissingValueSourceThrows) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  // Drop the add from the WS: the store's operand has no producer in WS and
  // no registered source.
  std::vector<DdgNodeId> ws;
  for (const DdgNodeId n : problem.workingSet) {
    if (ddg.node(n).op != ddg::Op::kAdd) ws.push_back(n);
  }
  problem.workingSet = ws;
  EXPECT_THROW(PreparedProblem(problem, SeeOptions{}), InvalidArgumentError);
}

TEST(PreparedTest, ConstOperandsNeedNoSource) {
  const auto ddg = diamondDdg();  // addresses are consts
  const auto pg = smallPg(2);
  const auto problem = baseProblem(ddg, pg);
  EXPECT_NO_THROW(PreparedProblem(problem, SeeOptions{}));
}

TEST(PreparedTest, DuplicateWsNodeRejected) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  problem.workingSet.push_back(problem.workingSet.front());
  EXPECT_THROW(PreparedProblem(problem, SeeOptions{}), InvalidArgumentError);
}

// --- engine on unconstrained machines -----------------------------------------

TEST(EngineTest, AssignsEverythingOnGenerousMachine) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  const auto problem = baseProblem(ddg, pg);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  for (const DdgNodeId n : problem.workingSet) {
    EXPECT_TRUE(clusterOf(problem, result.solution, n).valid());
  }
  EXPECT_GT(result.stats.candidatesEvaluated, 0);
}

TEST(EngineTest, SingleClusterNeedsNoCopies) {
  const auto ddg = diamondDdg();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(4, 4));
  const auto problem = baseProblem(ddg, pg);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal);
  EXPECT_EQ(result.solution.flow().totalCopies(), 0);
}

TEST(EngineTest, CopiesAppearWhenDependencesCrossClusters) {
  // Four one-CN clusters at target II 1: the II term spreads the diamond.
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  auto problem = baseProblem(ddg, pg);
  SeeOptions options;
  options.chainGrouping = false;
  const SpaceExplorationEngine engine(options);
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  EXPECT_GT(result.solution.flow().totalCopies(), 0);
}

TEST(EngineTest, HeterogeneousResourcesRespected) {
  // RCP-style: only even clusters own an AG; loads/stores must land there.
  const auto ddg = diamondDdg();
  machine::RcpConfig config;
  config.clusters = 4;
  config.neighborReach = 1;
  config.inputPorts = 2;
  config.memClusterStride = 2;
  const auto pg = machine::rcpPatternGraph(config);
  auto problem = baseProblem(ddg, pg);
  problem.constraints = machine::rcpConstraints(config);
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  for (const DdgNodeId n : problem.workingSet) {
    if (ddg::isMemoryOp(ddg.node(n).op)) {
      EXPECT_EQ(clusterOf(problem, result.solution, n).value() % 2, 0)
          << "memory op on AG-less cluster";
    }
  }
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  const SpaceExplorationEngine engine;
  const auto r1 = engine.run(problem);
  const auto r2 = engine.run(problem);
  ASSERT_TRUE(r1.legal);
  EXPECT_EQ(r1.solution.signature(), r2.solution.signature());
  EXPECT_EQ(r1.solution.objective(), r2.solution.objective());
}

TEST(EngineTest, EmptyWorkingSetIsLegal) {
  ddg::Ddg empty;
  const auto pg = smallPg(2);
  SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  EXPECT_TRUE(result.legal);
  EXPECT_EQ(result.solution.assignedCount(), 0);
}

TEST(EngineTest, SolutionSizeIndependentOfUnrelatedDdgNodes) {
  // A leaf sub-problem's result is sized by its working set, relays and
  // PG, never by the DDG it is cut from: padding the DDG with nodes outside
  // the working set must leave the record the sub-problem cache stores
  // exactly as large (and the assignment the same).
  const auto pg = smallPg(4);
  const auto solve = [&pg](int padding) {
    DdgBuilder b;
    const auto a = b.load(b.cst(0), 0, "a");
    const auto c = b.load(b.cst(1), 0, "c");
    const auto s = b.add(a, c, "s");
    b.store(b.cst(2), s, 0, "out");
    for (int i = 0; i < padding; ++i) {
      b.store(b.cst(3), b.add(b.load(b.cst(4)), b.cst(i)));
    }
    const auto ddg = b.finish();
    auto problem = baseProblem(ddg, pg);
    problem.workingSet.resize(4);  // the diamond: a, c, s, out
    for (const DdgNodeId n : problem.workingSet) {
      EXPECT_FALSE(ddg.node(n).name.empty()) << "not a diamond node";
    }
    const auto result = SpaceExplorationEngine().run(problem);
    EXPECT_TRUE(result.legal) << result.failureReason;
    return std::make_pair(result.solution.approxBytes(),
                          result.solution.signature());
  };
  const auto small = solve(0);
  const auto padded = solve(200);
  EXPECT_EQ(padded.first, small.first);
  EXPECT_EQ(padded.second, small.second);
}

// --- constraints ----------------------------------------------------------------

TEST(ConstraintTest, MaxInNeighborsEnforced) {
  // Star: center consumes from 3 producers on 3 different clusters, but
  // maxIn = 2 and each producer cluster is capped to its producer. The
  // engine must still find a legal solution by co-locating or routing.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0);
  const auto y = b.load(b.cst(1), 0);
  const auto z = b.load(b.cst(2), 0);
  const auto s = b.add(b.add(x, y), z);
  b.store(b.cst(3), s);
  const auto ddg = b.finish();

  const auto pg = smallPg(4);
  auto problem = baseProblem(ddg, pg);
  problem.constraints.maxInNeighbors = 1;
  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  // Verify the constraint on the result.
  for (const ClusterId c : pg.clusterNodes()) {
    EXPECT_LE(result.solution.flow().realInNeighbors(pg, c).size(), 1u);
  }
}

TEST(ConstraintTest, OutputUnaryFanInForcesCoLocation) {
  // Paper Fig. 10: two values k, h leave on the same output wire; their
  // producers must land on the same cluster.
  DdgBuilder b;
  const auto a = b.load(b.cst(0), 0, "x");
  const auto k = b.add(a, b.cst(1), "k");
  const auto h = b.mul(a, b.cst(2), "h");
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 4; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const auto out = pg.addOutputNode("out0");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  // Find k's and h's node ids by name.
  ValueId kv, hv;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg.node(DdgNodeId(v)).name == "k") kv = ValueId(v);
    if (ddg.node(DdgNodeId(v)).name == "h") hv = ValueId(v);
  }
  problem.outputRequirements.push_back({out, {kv, hv}});

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  EXPECT_EQ(clusterOf(problem, result.solution, DdgNodeId(kv.value())),
            clusterOf(problem, result.solution, DdgNodeId(hv.value())));
  // Output node has exactly one real in-neighbor.
  EXPECT_EQ(result.solution.flow().realInNeighbors(pg, out).size(), 1u);
}

TEST(ConstraintTest, InputNodeValuesConsumedViaBoundary) {
  // A consumer whose producer is outside the WS reads it from the input
  // node registered in valueSources.
  DdgBuilder b;
  const auto ext = b.load(b.cst(0), 0, "ext");  // will be out-of-WS
  const auto use = b.add(ext, b.cst(1), "use");
  b.store(b.cst(2), use);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 2; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  ValueId extV;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    if (ddg.node(DdgNodeId(v)).name == "ext") extV = ValueId(v);
  }
  const auto in = pg.addInputNode({extV}, "in0");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &ddg;
  for (std::int32_t v = 0; v < ddg.numNodes(); ++v) {
    const auto op = ddg.node(DdgNodeId(v)).op;
    if (ddg::isInstruction(op) && op != ddg::Op::kLoad) {
      problem.workingSet.emplace_back(v);
    }
  }
  problem.pg = &pg;
  problem.valueSources[extV] = in;

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  // The boundary value flows from the input node to the add's cluster.
  const ClusterId addCluster =
      clusterOf(problem, result.solution,
                DdgNodeId(extV.value() + 2));  // cst(1) then add follow ext
  bool found = false;
  for (const PgArcId arc : pg.outArcs(in)) {
    for (const ValueId v : result.solution.flow().copiesOn(arc)) {
      if (v == extV) found = true;
    }
  }
  EXPECT_TRUE(found);
  (void)addCluster;
}

// --- route allocator (paper Fig. 6) --------------------------------------------

TEST(RouteAllocatorTest, PaperFigure6RoutesThroughIntermediate) {
  // Ring of 4 clusters (reach 1), maxIn = 1: one producer with two
  // consumers must be placed so every cluster keeps a single in-neighbor.
  // The search finds such a placement without relays (0 route
  // invocations); FindsMultiHopPath covers multi-hop routing itself.
  DdgBuilder b;
  const auto i0 = b.load(b.cst(0), 0, "i");
  // Two consumers that will occupy cluster 0's direct neighborhood budget.
  const auto u1 = b.add(i0, b.cst(1), "u1");
  const auto u2 = b.mul(i0, b.cst(2), "u2");
  b.store(b.cst(1), u1);
  b.store(b.cst(2), u2);
  const auto ddg = b.finish();

  machine::RcpConfig config;
  config.clusters = 4;
  config.neighborReach = 1;  // ring: only +-1 reachable
  config.inputPorts = 1;     // K = 1: one in-neighbor per cluster
  config.memClusterStride = 1;
  const auto pg = machine::rcpPatternGraph(config);

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;
  problem.constraints = machine::rcpConstraints(config);

  SeeOptions options;
  options.beamWidth = 2;
  const SpaceExplorationEngine engine(options);
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  // Constraint must hold in the final flow.
  for (const ClusterId c : pg.clusterNodes()) {
    EXPECT_LE(result.solution.flow().realInNeighbors(pg, c).size(), 1u);
  }
}

TEST(RouteAllocatorTest, FindsMultiHopPath) {
  // Directly exercise routeAndAssign: line topology 0 -> 1 -> 2, value
  // produced at 0, consumer forced to 2.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  const auto y = b.neg(x, "y");
  b.store(b.cst(1), y);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 3; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.addArc(ClusterId(0), ClusterId(1));
  pg.addArc(ClusterId(1), ClusterId(2));

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;

  const PreparedProblem prepared(problem, SeeOptions{});
  SearchState s(prepared);
  // Assign the load to cluster 0 by hand.
  const Item loadItem = itemWithOp(prepared, ddg::Op::kLoad);
  ASSERT_TRUE(canAssign(prepared, s.delta, loadItem, ClusterId(0)));
  assign(prepared, s.delta, loadItem, ClusterId(0));

  // The neg cannot go on cluster 2 directly (no arc 0 -> 2)...
  const Item negItem = itemWithOp(prepared, ddg::Op::kNeg);
  EXPECT_FALSE(canAssign(prepared, s.delta, negItem, ClusterId(2)));
  // ...but the route allocator relays through cluster 1.
  int routed = 0;
  ASSERT_TRUE(routeAndAssign(prepared, s.delta, negItem, ClusterId(2),
                             &routed));
  EXPECT_EQ(routed, 1);
  EXPECT_EQ(s.delta.clusterOf(negItem.node), ClusterId(2));
  // The value crosses both arcs.
  const PartialSolution extended = s.result();
  const ValueId xv(loadItem.node.value());
  const auto a01 = *pg.arcBetween(ClusterId(0), ClusterId(1));
  const auto a12 = *pg.arcBetween(ClusterId(1), ClusterId(2));
  EXPECT_EQ(extended.flow().copiesOn(a01).size(), 1u);
  EXPECT_EQ(extended.flow().copiesOn(a01)[0], xv);
  EXPECT_EQ(extended.flow().copiesOn(a12)[0], xv);
}

TEST(RouteAllocatorTest, RespectsHopLimit) {
  // Long line: 5 clusters, value at 0, target 4 -> needs 3 relays.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  const auto y = b.neg(x, "y");
  b.store(b.cst(1), y);
  const auto ddg = b.finish();

  machine::PatternGraph pg;
  for (int i = 0; i < 5; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  for (int i = 0; i < 4; ++i) pg.addArc(ClusterId(i), ClusterId(i + 1));

  SeeProblem problem;
  problem.ddg = &ddg;
  problem.workingSet = fullWorkingSet(ddg);
  problem.pg = &pg;

  SeeOptions tight;
  tight.maxRouteHops = 2;  // not enough for 3 relays
  const PreparedProblem preparedTight(problem, tight);
  SearchState s(preparedTight);
  const Item loadItem = itemWithOp(preparedTight, ddg::Op::kLoad);
  const Item negItem = itemWithOp(preparedTight, ddg::Op::kNeg);
  assign(preparedTight, s.delta, loadItem, ClusterId(0));
  EXPECT_FALSE(routeAndAssign(preparedTight, s.delta, negItem, ClusterId(4),
                              nullptr));

  SeeOptions loose;
  loose.maxRouteHops = 3;
  const PreparedProblem preparedLoose(problem, loose);
  SearchState s2(preparedLoose);
  assign(preparedLoose, s2.delta, loadItem, ClusterId(0));
  EXPECT_TRUE(routeAndAssign(preparedLoose, s2.delta, negItem, ClusterId(4),
                             nullptr));
}

// --- relays -------------------------------------------------------------------

TEST(RelayTest, RelayValueParkedAndWired) {
  ddg::Ddg empty;  // no WS nodes: pure pass-through problem
  machine::PatternGraph pg;
  for (int i = 0; i < 2; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  pg.connectClustersCompletely();
  const auto in = pg.addInputNode({ValueId(0)}, "in");
  const auto out = pg.addOutputNode("out");
  pg.connectBoundaryNodes();

  SeeProblem problem;
  problem.ddg = &empty;
  problem.pg = &pg;
  problem.relayValues = {ValueId(0)};
  problem.valueSources[ValueId(0)] = in;
  problem.outputRequirements.push_back({out, {ValueId(0)}});

  const SpaceExplorationEngine engine;
  const auto result = engine.run(problem);
  ASSERT_TRUE(result.legal) << result.failureReason;
  const ClusterId parked = result.solution.relayCluster(0);
  EXPECT_TRUE(parked.valid());
  // Value flows in -> parked -> out.
  const auto aIn = *pg.arcBetween(in, parked);
  const auto aOut = *pg.arcBetween(parked, out);
  EXPECT_TRUE(result.solution.flow().isReal(aIn));
  EXPECT_TRUE(result.solution.flow().isReal(aOut));
  // The relay consumes an issue slot.
  EXPECT_EQ(result.solution.usage(parked).instructions, 1);
}

// --- cost criteria --------------------------------------------------------------

TEST(CostTest, IiEstimateGrowsWithLoad) {
  const auto ddg = diamondDdg();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable::computationNode());
  pg.addCluster(machine::ResourceTable::computationNode());
  pg.connectClustersCompletely();
  auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});

  SearchState s(prepared);
  const double before = iiEstimateScore(prepared, s.delta);
  // Pile everything on cluster 0.
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      assign(prepared, s.delta, item, ClusterId(0));
    }
  }
  EXPECT_GT(iiEstimateScore(prepared, s.delta), before);
  EXPECT_EQ(clusterMii(prepared, s.delta, ClusterId(0)), 4);
  EXPECT_EQ(clusterMii(prepared, s.delta, ClusterId(1)), 1);
}

TEST(CostTest, BalancedBeatsUnbalanced) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});

  SearchState lumped(prepared);
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      assign(prepared, lumped.delta, item, ClusterId(0));
    }
  }
  SearchState spread(prepared);
  int i = 0;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      assign(prepared, spread.delta, item, ClusterId(i++ % 2));
    }
  }
  EXPECT_LT(loadBalanceScore(prepared, spread.delta),
            loadBalanceScore(prepared, lumped.delta));
}

TEST(CostTest, CopyCountCountsFlow) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  SeeOptions copiesOnly;
  copiesOnly.weights = CostWeights{.iiEstimate = 0,
                                   .copyCount = 1,
                                   .loadBalance = 0,
                                   .criticalPath = 0,
                                   .wiringSlack = 0};
  const PreparedProblem prepared(problem, copiesOnly);
  SearchState s(prepared);
  int i = 0;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      assign(prepared, s.delta, item, ClusterId(i++ % 2));
    }
  }
  const int copies = s.result().flow().totalCopies();
  EXPECT_EQ(evaluateObjective(prepared, s.delta),
            static_cast<double>(copies));
  EXPECT_GT(copies, 0);
}

TEST(CostTest, WeightedObjectiveCombines) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  auto problem = baseProblem(ddg, pg);
  problem.constraints.maxInNeighbors = 2;  // give wiring slack a value

  // A lone weight scales its criterion.
  SeeOptions iiOnly;
  iiOnly.weights.iiEstimate = 10;
  iiOnly.weights.copyCount = 0;
  iiOnly.weights.loadBalance = 0;
  iiOnly.weights.criticalPath = 0;
  iiOnly.weights.wiringSlack = 0;
  const PreparedProblem preparedIi(problem, iiOnly);
  SearchState root(preparedIi);
  EXPECT_DOUBLE_EQ(evaluateObjective(preparedIi, root.delta),
                   10 * iiEstimateScore(preparedIi, root.delta));

  // All five criteria combine as the weighted sum, in criterion order.
  const PreparedProblem prepared(problem, SeeOptions{});
  SearchState s(prepared);
  int i = 0;
  for (const auto& group : prepared.items()) {
    for (const auto& item : group.members) {
      assign(prepared, s.delta, item, ClusterId(i++ % 2));
    }
  }
  const CostWeights& w = prepared.options().weights;
  double expected = 0;
  expected += w.iiEstimate * iiEstimateScore(prepared, s.delta);
  expected += w.copyCount * static_cast<double>(s.delta.totalCopies());
  expected += w.loadBalance * loadBalanceScore(prepared, s.delta);
  expected += w.criticalPath * s.delta.criticalPathScore(prepared);
  expected += w.wiringSlack * wiringSlackScore(prepared, s.delta);
  EXPECT_GT(s.delta.criticalPathScore(prepared), 0.0);
  EXPECT_GT(wiringSlackScore(prepared, s.delta), 0.0);
  EXPECT_DOUBLE_EQ(evaluateObjective(prepared, s.delta), expected);
}

// --- beam / filters --------------------------------------------------------------

TEST(FilterTest, WiderBeamExploresMoreWithComparableQuality) {
  const auto kernel = ddg::buildIdctHor();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  problem.inWiresPerCluster = 4;
  problem.outWiresPerCluster = 4;

  SeeOptions narrow;
  narrow.beamWidth = 1;
  narrow.candidateKeep = 1;
  SeeOptions wide;
  wide.beamWidth = 6;
  wide.candidateKeep = 4;

  const auto r1 = SpaceExplorationEngine(narrow).run(problem);
  const auto r2 = SpaceExplorationEngine(wide).run(problem);
  ASSERT_TRUE(r1.legal);
  ASSERT_TRUE(r2.legal);
  // Beam search is not strictly monotone in the beam width, but a wider
  // beam must stay within a whisker of greedy and explore far more states.
  EXPECT_LE(r2.solution.objective(), r1.solution.objective() * 1.02);
  EXPECT_GT(r2.stats.candidatesEvaluated, r1.stats.candidatesEvaluated);
}

TEST(FilterTest, StatsTrackPruning) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  SeeOptions options;
  options.beamWidth = 2;
  options.candidateKeep = 4;
  const auto result = SpaceExplorationEngine(options).run(problem);
  ASSERT_TRUE(result.legal);
  EXPECT_GT(result.stats.statesPruned, 0);
  EXPECT_GT(result.stats.statesExplored, 0);
}

// --- feasibility oracle -------------------------------------------------------

/// Brute-force direct assignment of a whole group: the loop the oracle's
/// directFeasibleMask summarizes, probed on a delta over `state`.
bool bruteForceDirect(const PreparedProblem& prepared,
                      const FlatSolution* state, const ItemGroup& group,
                      ClusterId c, DeltaSolution& probe) {
  probe.reset(state);
  for (const Item& item : group.members) {
    if (!canAssign(prepared, probe, item, c)) return false;
    assign(prepared, probe, item, c);
  }
  return true;
}

/// Soundness property of the oracle's dynamic mask: walking random partial
/// solutions through the priority list, a cluster where the brute-force
/// direct-assignment loop succeeds must never be excluded from the mask.
/// (The converse — the mask excluding every failing cluster — is not
/// required: the oracle is an over-approximation.)
void checkMaskSoundOnRandomWalks(const SeeProblem& problem,
                                 const SeeOptions& options,
                                 std::uint32_t seed) {
  const PreparedProblem prepared(problem, options);
  const FeasibilityOracle& oracle = prepared.oracle();
  std::mt19937 rng(seed);
  DeltaSolution probe;
  probe.init(prepared);
  for (int walk = 0; walk < 8; ++walk) {
    SearchState s(prepared);
    for (std::size_t gi = 0; gi < prepared.items().size(); ++gi) {
      const ItemGroup& group = prepared.items()[gi];
      const std::uint64_t mask = oracle.directFeasibleMask(*s.flat, gi);
      std::vector<ClusterId> feasible;
      for (const ClusterId c : prepared.clusters()) {
        if (!bruteForceDirect(prepared, s.flat, group, c, probe)) continue;
        feasible.push_back(c);
        EXPECT_NE(mask & detail::pgBit(c), 0u)
            << "oracle excluded assignable cluster " << c.value()
            << " for group " << gi << " on walk " << walk;
      }
      if (feasible.empty()) break;  // dead end: restart from a fresh walk
      const ClusterId pick =
          feasible[rng() % static_cast<std::uint32_t>(feasible.size())];
      for (const Item& item : group.members) {
        assign(prepared, s.delta, item, pick);
      }
      s.commit();
    }
  }
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterDiamond) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(4);
  SeeOptions options;
  options.chainGrouping = false;
  checkMaskSoundOnRandomWalks(baseProblem(ddg, pg), options, 1u);
  checkMaskSoundOnRandomWalks(baseProblem(ddg, pg), options, 2u);
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterRcp) {
  const auto ddg = diamondDdg();
  std::mt19937 rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    machine::RcpConfig config;
    config.clusters = 4 + static_cast<int>(rng() % 3);
    config.neighborReach = 1 + static_cast<int>(rng() % 2);
    config.inputPorts = 1 + static_cast<int>(rng() % 2);
    config.memClusterStride = 1 + static_cast<int>(rng() % 2);
    const auto pg = machine::rcpPatternGraph(config);
    auto problem = baseProblem(ddg, pg);
    problem.constraints = machine::rcpConstraints(config);
    SeeOptions options;
    options.chainGrouping = false;
    // Skip one draw so seed 7 yields six valid fabrics: without the skip a
    // trial draws 4 clusters with reach 2, which wraps the ring.
    rng.discard(1);
    checkMaskSoundOnRandomWalks(problem, options, rng());
  }
}

TEST(OracleTest, MaskNeverExcludesAssignableClusterFir2Dim) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(6);
  auto problem = baseProblem(kernel.ddg, pg);
  checkMaskSoundOnRandomWalks(problem, SeeOptions{}, 11u);
}

TEST(OracleTest, HopDistanceMatchesBfsOnFreshLine) {
  // Directed line 0 -> 1 -> ... -> 5 with generous budgets: the dynamic
  // BFS sees exactly the static graph, so the (lazily built) hop matrix
  // must agree with findPath in both directions — forward pairs reachable
  // at distance dst-src, backward pairs unreachable.
  DdgBuilder b;
  const auto x = b.load(b.cst(0), 0, "x");
  b.store(b.cst(1), b.neg(x, "y"));
  const auto ddg = b.finish();
  machine::PatternGraph pg;
  for (int i = 0; i < 6; ++i) {
    pg.addCluster(machine::ResourceTable::computationNode());
  }
  for (int i = 0; i < 5; ++i) pg.addArc(ClusterId(i), ClusterId(i + 1));
  const auto problem = baseProblem(ddg, pg);
  const PreparedProblem prepared(problem, SeeOptions{});
  const FeasibilityOracle& oracle = prepared.oracle();
  SearchState state(prepared);
  const DeltaSolution& sol = state.delta;
  ValueId v;
  for (std::int32_t n = 0; n < ddg.numNodes(); ++n) {
    if (ddg.node(DdgNodeId(n)).name == "x") v = ValueId(n);
  }
  ASSERT_TRUE(v.valid());
  for (int s = 0; s < 6; ++s) {
    for (int d = 0; d < 6; ++d) {
      const auto path = findPath(prepared, sol, ClusterId(s), ClusterId(d),
                                  v, /*maxHops=*/10);
      const std::uint8_t hop = oracle.hopDistance(ClusterId(s), ClusterId(d));
      if (d >= s) {
        ASSERT_EQ(path.size(), static_cast<std::size_t>(d - s + 1))
            << s << " -> " << d;
        EXPECT_EQ(static_cast<int>(hop), d - s);
      } else {
        EXPECT_TRUE(path.empty());
        EXPECT_EQ(hop, FeasibilityOracle::kUnreachable);
      }
    }
  }
  // The depth budget applies on top of reachability: 0 -> 4 needs 3
  // relays, so maxHops = 2 must refuse even though hop says reachable.
  EXPECT_TRUE(findPath(prepared, sol, ClusterId(0), ClusterId(4), v, 2)
                  .empty());
  EXPECT_FALSE(findPath(prepared, sol, ClusterId(0), ClusterId(4), v, 3)
                   .empty());
}

// --- search determinism --------------------------------------------------------

/// Runs `problem` twice under `options`: the search must reproduce itself
/// field for field, and the copy-on-write bookkeeping must be live.
void expectDeterministic(const SeeProblem& problem, const SeeOptions& options) {
  const SpaceExplorationEngine engine(options);
  const auto a = engine.run(problem);
  const auto b = engine.run(problem);
  ASSERT_EQ(a.legal, b.legal) << a.failureReason << " vs " << b.failureReason;
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.stats.statesExplored, b.stats.statesExplored);
  EXPECT_EQ(a.stats.candidatesEvaluated, b.stats.candidatesEvaluated);
  EXPECT_EQ(a.stats.candidateRejections, b.stats.candidateRejections);
  EXPECT_EQ(a.stats.statesPruned, b.stats.statesPruned);
  EXPECT_EQ(a.stats.routeInvocations, b.stats.routeInvocations);
  EXPECT_EQ(a.stats.routeFailures, b.stats.routeFailures);
  EXPECT_EQ(a.stats.routedOperands, b.stats.routedOperands);
  EXPECT_EQ(a.stats.copiesAvoided, b.stats.copiesAvoided);
  EXPECT_EQ(a.stats.snapshotsMaterialized, b.stats.snapshotsMaterialized);
  EXPECT_EQ(a.stats.arenaBytesPeak, b.stats.arenaBytesPeak);
  ASSERT_EQ(a.alternatives.size(), b.alternatives.size());
  for (std::size_t i = 0; i < a.alternatives.size(); ++i) {
    const auto& as = a.alternatives[i];
    const auto& bs = b.alternatives[i];
    EXPECT_EQ(as.signature(), bs.signature()) << "frontier state " << i;
    EXPECT_EQ(as.objective(), bs.objective()) << "frontier state " << i;
    EXPECT_EQ(as.flow().totalCopies(), bs.flow().totalCopies())
        << "frontier state " << i;
  }
  if (a.legal) {
    EXPECT_EQ(a.solution.signature(), b.solution.signature());
    EXPECT_EQ(a.solution.objective(), b.solution.objective());
  }
  if (a.stats.statesExplored > 0) {
    EXPECT_GT(a.stats.copiesAvoided, 0);
    EXPECT_GT(a.stats.snapshotsMaterialized, 0);
    EXPECT_GT(a.stats.arenaBytesPeak, 0);
  }
}

TEST(DeltaSearchTest, DeterministicOnDiamond) {
  const auto ddg = diamondDdg();
  const auto pg = smallPg(2);
  expectDeterministic(baseProblem(ddg, pg), SeeOptions{});
}

TEST(DeltaSearchTest, DeterministicOnFir2DimAcrossBeamWidths) {
  const auto kernel = ddg::buildFir2Dim();
  const auto pg = smallPg(8);
  const auto problem = baseProblem(kernel.ddg, pg);
  for (const int beam : {1, 2, 6}) {
    SeeOptions options;
    options.beamWidth = beam;
    options.candidateKeep = beam == 1 ? 1 : 4;
    expectDeterministic(problem, options);
  }
}

TEST(DeltaSearchTest, DeterministicOnInfeasibleProblem) {
  // One 1x1 cluster cannot host fir2dim: the failure (reason, partial
  // stats) must repeat exactly.
  const auto kernel = ddg::buildFir2Dim();
  machine::PatternGraph pg;
  pg.addCluster(machine::ResourceTable(1, 1));
  auto problem = baseProblem(kernel.ddg, pg);
  expectDeterministic(problem, SeeOptions{});
}

TEST(DeltaSearchTest, DeterministicWithEagerRouting) {
  const auto kernel = ddg::buildIdctHor();
  const auto pg = smallPg(8);
  auto problem = baseProblem(kernel.ddg, pg);
  problem.inWiresPerCluster = 4;
  problem.outWiresPerCluster = 4;
  for (const bool eager : {false, true}) {
    SeeOptions options;
    options.eagerRouting = eager;
    expectDeterministic(problem, options);
  }
}

}  // namespace
}  // namespace hca::see
