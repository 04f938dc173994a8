#include <gtest/gtest.h>

#include <set>

#include "maintenance/baseline_planner.h"
#include "maintenance/differential_planner.h"
#include "maintenance/exact_solver.h"
#include "maintenance/objective.h"
#include "maintenance/triple_gen.h"
#include "maintenance/view_reassigner.h"
#include "tests/test_util.h"

namespace avm {
namespace {

using testing_util::MakeCountViewFixture;

/// Shared scaffolding: a fixture plus a generated triple set for a random
/// delta.
struct PlannedBatch {
  testing_util::ViewFixture fixture;
  std::unique_ptr<DistributedArray> delta;
  TripleSet triples;
};

Result<PlannedBatch> MakePlannedBatch(int num_workers, size_t base_cells,
                                      size_t delta_cells, uint64_t seed,
                                      Shape shape) {
  PlannedBatch batch;
  AVM_ASSIGN_OR_RETURN(
      batch.fixture,
      MakeCountViewFixture(num_workers, base_cells, std::move(shape), seed));
  Rng rng(seed + 1);
  SparseArray cells = testing_util::RandomDisjointDelta(
      batch.fixture.local_base, delta_cells, &rng);
  ArraySchema schema("delta", cells.schema().dims(), cells.schema().attrs());
  AVM_ASSIGN_OR_RETURN(
      DistributedArray delta,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                               batch.fixture.catalog.get(),
                               batch.fixture.cluster.get()));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  AVM_RETURN_IF_ERROR(status);
  batch.delta = std::make_unique<DistributedArray>(std::move(delta));
  AVM_ASSIGN_OR_RETURN(batch.triples,
                       GenerateTriples(ViewSet(batch.fixture.view.get()),
                                       batch.delta.get(), nullptr));
  return batch;
}

/// Structural validity shared by every planner: C1/C3-style invariants.
void CheckPlanInvariants(const MaintenancePlan& plan, const TripleSet& triples,
                         int num_workers) {
  // C3/C5: every pair is assigned exactly once, to a worker.
  std::set<size_t> assigned;
  for (const auto& join : plan.joins) {
    EXPECT_TRUE(assigned.insert(join.pair_index).second);
    EXPECT_GE(join.node, 0);
    EXPECT_LT(join.node, num_workers);
  }
  EXPECT_EQ(assigned.size(), triples.pairs.size());

  // C2: after the planned transfers, both operands of every join are
  // available at its node.
  std::set<std::pair<MChunkRef, NodeId>> available;
  for (const auto& [ref, node] : triples.location) {
    available.insert({ref, node});
  }
  for (const auto& t : plan.transfers) {
    EXPECT_TRUE(available.count({t.chunk, t.from}) > 0)
        << "transfer from a node that does not hold the chunk";
    available.insert({t.chunk, t.to});
  }
  for (const auto& join : plan.joins) {
    const JoinPair& pair = triples.pairs[join.pair_index];
    EXPECT_TRUE(available.count({pair.a, join.node}) > 0);
    EXPECT_TRUE(available.count({pair.b, join.node}) > 0);
  }

  // Every affected view chunk has a home on a worker (y, C1).
  for (const auto& pair : triples.pairs) {
    for (ChunkId v : pair.AllViewTargets()) {
      auto it = plan.view_home.find(v);
      ASSERT_TRUE(it != plan.view_home.end());
      EXPECT_GE(it->second, 0);
      EXPECT_LT(it->second, num_workers);
    }
  }
}

TEST(BaselinePlannerTest, PlanIsValid) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(4, 100, 40, 11, Shape::L1Ball(2, 1)));
  ASSERT_OK_AND_ASSIGN(MaintenancePlan plan,
                       PlanBaseline(*batch.fixture.view, batch.triples, 4));
  CheckPlanInvariants(plan, batch.triples, 4);
}

TEST(BaselinePlannerTest, DeltaChunksPlacedByStrategy) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(4, 60, 30, 12, Shape::L1Ball(2, 1)));
  ASSERT_OK_AND_ASSIGN(MaintenancePlan plan,
                       PlanBaseline(*batch.fixture.view, batch.triples, 4));
  const Catalog* catalog = batch.fixture.catalog.get();
  const ArrayId base_id = batch.fixture.view->left_base().id();
  for (const auto& move : plan.array_moves) {
    ASSERT_TRUE(IsDeltaSide(move.chunk.side));
    EXPECT_EQ(move.node,
              catalog->PlaceByStrategy(base_id, move.chunk.id, 4));
  }
}

TEST(BaselinePlannerTest, JoinsAtStoredOperand) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(4, 80, 30, 13, Shape::L1Ball(2, 1)));
  ASSERT_OK_AND_ASSIGN(MaintenancePlan plan,
                       PlanBaseline(*batch.fixture.view, batch.triples, 4));
  for (const auto& join : plan.joins) {
    const JoinPair& pair = batch.triples.pairs[join.pair_index];
    if (!IsDeltaSide(pair.a.side)) {
      EXPECT_EQ(join.node, batch.triples.location.at(pair.a));
    } else if (!IsDeltaSide(pair.b.side)) {
      EXPECT_EQ(join.node, batch.triples.location.at(pair.b));
    }
  }
}

TEST(DifferentialPlannerTest, PlanIsValid) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(4, 100, 40, 14, Shape::L1Ball(2, 1)));
  PlannerOptions options;
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult result,
      PlanDifferentialView(*batch.fixture.view, batch.triples, 4,
                           batch.fixture.cluster->cost_model(), options));
  CheckPlanInvariants(result.plan, batch.triples, 4);
}

TEST(DifferentialPlannerTest, TrackerMatchesStage1Objective) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(3, 80, 30, 15, Shape::L1Ball(2, 1)));
  PlannerOptions options;
  const CostModel& cost = batch.fixture.cluster->cost_model();
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult result,
      PlanDifferentialView(*batch.fixture.view, batch.triples, 3, cost,
                           options));
  // Reconstruct the assignment and evaluate with the independent formula.
  std::vector<NodeId> assignment(batch.triples.pairs.size(), 0);
  for (const auto& join : result.plan.joins) {
    assignment[join.pair_index] = join.node;
  }
  ASSERT_OK_AND_ASSIGN(
      double objective,
      EvaluateStage1Assignment(batch.triples, assignment, 3, cost));
  EXPECT_NEAR(result.tracker.CurrentMax(), objective, 1e-12);
}

TEST(DifferentialPlannerTest, NeverWorseThanBaselineOnStage1Objective) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    ASSERT_OK_AND_ASSIGN(
        auto batch,
        MakePlannedBatch(4, 120, 50, seed, Shape::LinfBall(2, 1)));
    const CostModel& cost = batch.fixture.cluster->cost_model();
    PlannerOptions options;
    options.seed = seed;
    ASSERT_OK_AND_ASSIGN(
        DifferentialPlanResult diff,
        PlanDifferentialView(*batch.fixture.view, batch.triples, 4, cost,
                             options));
    ASSERT_OK_AND_ASSIGN(
        MaintenancePlan baseline,
        PlanBaseline(*batch.fixture.view, batch.triples, 4));
    // Evaluate both on the same stage-1 objective. The baseline pays the
    // initial coordinator->placement shipping too, so compare its full
    // transfer+cpu breakdown via the objective evaluator without the merge
    // term.
    ASSERT_OK_AND_ASSIGN(
        ObjectiveBreakdown diff_cost,
        EvaluateCurrentBatchObjective(diff.plan, batch.triples, 4, cost,
                                      /*include_merge_term=*/false));
    ASSERT_OK_AND_ASSIGN(
        ObjectiveBreakdown base_cost,
        EvaluateCurrentBatchObjective(baseline, batch.triples, 4, cost,
                                      /*include_merge_term=*/false));
    EXPECT_LE(diff_cost.Makespan(), base_cost.Makespan() + 1e-12)
        << "seed " << seed;
  }
}

TEST(DifferentialPlannerTest, DeterministicForFixedSeed) {
  ASSERT_OK_AND_ASSIGN(
      auto b1, MakePlannedBatch(4, 80, 30, 31, Shape::L1Ball(2, 1)));
  ASSERT_OK_AND_ASSIGN(
      auto b2, MakePlannedBatch(4, 80, 30, 31, Shape::L1Ball(2, 1)));
  PlannerOptions options;
  const CostModel& cost = b1.fixture.cluster->cost_model();
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult r1,
      PlanDifferentialView(*b1.fixture.view, b1.triples, 4, cost, options));
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult r2,
      PlanDifferentialView(*b2.fixture.view, b2.triples, 4, cost, options));
  ASSERT_EQ(r1.plan.joins.size(), r2.plan.joins.size());
  for (size_t i = 0; i < r1.plan.joins.size(); ++i) {
    EXPECT_EQ(r1.plan.joins[i].pair_index, r2.plan.joins[i].pair_index);
    EXPECT_EQ(r1.plan.joins[i].node, r2.plan.joins[i].node);
  }
}

TEST(ExactSolverTest, HeuristicWithinFactorTwoOfExactOnTinyInstances) {
  // Small instances keep the pair count <= 10 for the exhaustive search.
  for (uint64_t seed : {41u, 42u, 43u, 44u, 45u}) {
    ASSERT_OK_AND_ASSIGN(
        auto batch, MakePlannedBatch(3, 6, 4, seed, Shape::L1Ball(2, 1)));
    if (batch.triples.pairs.size() > 10 || batch.triples.pairs.empty()) {
      continue;
    }
    const CostModel& cost = batch.fixture.cluster->cost_model();
    ASSERT_OK_AND_ASSIGN(ExactStage1Solution exact,
                         SolveStage1Exact(batch.triples, 3, cost));
    PlannerOptions options;
    options.seed = seed;
    ASSERT_OK_AND_ASSIGN(
        DifferentialPlanResult heuristic,
        PlanDifferentialView(*batch.fixture.view, batch.triples, 3, cost,
                             options));
    EXPECT_GE(heuristic.tracker.CurrentMax(), exact.objective - 1e-12);
    EXPECT_LE(heuristic.tracker.CurrentMax(), 2.0 * exact.objective + 1e-12)
        << "seed " << seed;
  }
}

TEST(ExactSolverTest, RejectsOversizedInstances) {
  TripleSet triples;
  triples.pairs.resize(11);
  EXPECT_TRUE(SolveStage1Exact(triples, 2, CostModel())
                  .status()
                  .IsInvalidArgument());
}

TEST(ExactSolverTest, EvaluateRejectsIncompleteAssignment) {
  TripleSet triples;
  triples.pairs.resize(2);
  EXPECT_TRUE(EvaluateStage1Assignment(triples, {0}, 2, CostModel())
                  .status()
                  .IsInvalidArgument());
}

TEST(ViewReassignerTest, AssignsEveryAffectedViewChunk) {
  ASSERT_OK_AND_ASSIGN(
      auto batch,
      MakePlannedBatch(4, 100, 40, 51, Shape::L1Ball(2, 1)));
  const CostModel& cost = batch.fixture.cluster->cost_model();
  PlannerOptions options;
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult result,
      PlanDifferentialView(*batch.fixture.view, batch.triples, 4, cost,
                           options));
  ASSERT_OK(ReassignViewChunks(batch.triples, 4, cost, options,
                               &result.tracker, &result.plan));
  CheckPlanInvariants(result.plan, batch.triples, 4);
}

TEST(ViewReassignerTest, RequiresStage1First) {
  ASSERT_OK_AND_ASSIGN(
      auto batch, MakePlannedBatch(3, 50, 20, 52, Shape::L1Ball(2, 1)));
  MaintenancePlan empty_plan;
  MakespanTracker tracker(3);
  EXPECT_TRUE(ReassignViewChunks(batch.triples, 3,
                                 batch.fixture.cluster->cost_model(),
                                 PlannerOptions(), &tracker, &empty_plan)
                  .IsFailedPrecondition());
}

TEST(ObjectiveTest, BreakdownMakespan) {
  ObjectiveBreakdown breakdown;
  breakdown.ntwk = {1.0, 5.0, 2.0};
  breakdown.cpu = {4.0, 3.0, 0.0};
  EXPECT_DOUBLE_EQ(breakdown.Makespan(), 5.0);
}

}  // namespace
}  // namespace avm
