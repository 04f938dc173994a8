#include "maintenance/executor.h"

#include <gtest/gtest.h>

#include <string_view>

#include "common/check.h"
#include "maintenance/baseline_planner.h"
#include "maintenance/triple_gen.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace avm {
namespace {

using testing_util::MakeCountViewFixture;

/// Executes `plan` for `view` alone: the one-member set's pass.
Result<ExecutionStats> ExecuteForView(const MaintenancePlan& plan,
                                      const TripleSet& triples,
                                      MaterializedView* view,
                                      DistributedArray* left_delta,
                                      DistributedArray* right_delta) {
  ViewSet set(view);
  return ExecuteMaintenancePlan(plan, triples, &set, left_delta, right_delta);
}

/// Executes a deliberately malformed plan and expects rejection. In
/// Debug/test builds the structural validator at the executor entry fires
/// first (surfaced through the throwing handler); in Release the executor's
/// own Status path rejects it with `expected_message`.
void ExpectPlanRejected(const MaintenancePlan& plan, const TripleSet& triples,
                        MaterializedView* view, DistributedArray* left_delta,
                        DistributedArray* right_delta,
                        std::string_view expected_message = {}) {
  if constexpr (kDebugChecksEnabled) {
    ScopedThrowingCheckHandler guard;
    EXPECT_THROW(ExecuteForView(plan, triples, view, left_delta, right_delta)
                     .status(),
                 CheckFailedError);
  } else {
    auto status =
        ExecuteForView(plan, triples, view, left_delta, right_delta).status();
    EXPECT_TRUE(status.IsInternal()) << status.ToString();
    if (!expected_message.empty()) {
      EXPECT_EQ(status.message(), expected_message);
    }
  }
}

struct ExecFixture {
  testing_util::ViewFixture fixture;
  std::unique_ptr<DistributedArray> delta;
  TripleSet triples;
};

Result<ExecFixture> MakeExecFixture(uint64_t seed, size_t base_cells = 80,
                                    size_t delta_cells = 30) {
  ExecFixture out;
  AVM_ASSIGN_OR_RETURN(
      out.fixture,
      MakeCountViewFixture(3, base_cells, Shape::L1Ball(2, 1), seed));
  Rng rng(seed + 1);
  SparseArray cells = testing_util::RandomDisjointDelta(
      out.fixture.local_base, delta_cells, &rng);
  ArraySchema schema("delta", cells.schema().dims(), cells.schema().attrs());
  AVM_ASSIGN_OR_RETURN(
      DistributedArray delta,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                               out.fixture.catalog.get(),
                               out.fixture.cluster.get()));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  AVM_RETURN_IF_ERROR(status);
  out.delta = std::make_unique<DistributedArray>(std::move(delta));
  AVM_ASSIGN_OR_RETURN(out.triples,
                       GenerateTriples(ViewSet(out.fixture.view.get()),
                                       out.delta.get(), nullptr));
  return out;
}

TEST(ExecutorTest, ExecutesBaselinePlanAndReportsStats) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(600));
  ASSERT_OK_AND_ASSIGN(
      MaintenancePlan plan,
      PlanBaseline(*exec_fixture.fixture.view, exec_fixture.triples, 3));
  ASSERT_OK_AND_ASSIGN(
      ExecutionStats stats,
      ExecuteForView(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr));
  EXPECT_GT(stats.joins_executed, 0u);
  EXPECT_GT(stats.delta_chunks_merged, 0u);
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*exec_fixture.fixture.view));
}

TEST(ExecutorTest, RejectsPlanWithoutColocation) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(601));
  ASSERT_FALSE(exec_fixture.triples.pairs.empty());
  // A plan that assigns joins but ships nothing: the delta operand never
  // reaches a worker, so the executor must fail loudly.
  MaintenancePlan bogus;
  for (size_t i = 0; i < exec_fixture.triples.pairs.size(); ++i) {
    bogus.joins.push_back({i, 0});
  }
  ExpectPlanRejected(bogus, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr);
}

TEST(ExecutorTest, RejectsJoinReferencingUnknownPair) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(602));
  MaintenancePlan bogus;
  bogus.joins.push_back({exec_fixture.triples.pairs.size() + 5, 0});
  ExpectPlanRejected(bogus, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr);
}

TEST(ExecutorTest, EmptyPlanStillMergesDeltaChunks) {
  // A plan with no joins (e.g. all updates irrelevant) must still fold the
  // delta into the base.
  ASSERT_OK_AND_ASSIGN(
      auto fixture,
      MakeCountViewFixture(3, 0, Shape::L1Ball(2, 1), 603));
  SparseArray cells(fixture.local_base.schema());
  ASSERT_OK(cells.Set({20, 12}, std::vector<double>{1.0}));
  ArraySchema schema("delta", cells.schema().dims(), cells.schema().attrs());
  ASSERT_OK_AND_ASSIGN(
      DistributedArray delta,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                               fixture.catalog.get(), fixture.cluster.get()));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  ASSERT_OK(status);
  TripleSet empty_triples;
  MaintenancePlan empty_plan;
  ASSERT_OK_AND_ASSIGN(
      ExecutionStats stats,
      ExecuteForView(empty_plan, empty_triples, fixture.view.get(), &delta,
                     nullptr));
  EXPECT_EQ(stats.joins_executed, 0u);
  EXPECT_EQ(stats.delta_chunks_merged, 1u);
  ASSERT_OK_AND_ASSIGN(SparseArray base_now,
                       fixture.view->left_base().Gather());
  EXPECT_TRUE(base_now.Has({20, 12}));
}

TEST(ExecutorTest, FreshBaseDeltaFoldAliasesInsteadOfCopying) {
  // Regression for the step-5 fold: a delta chunk with no existing base
  // chunk must *become* the base via a handle alias — zero deep copies and
  // zero COW breaks end to end, proven through the store telemetry.
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 0, Shape::L1Ball(2, 1), 612));
  SparseArray cells(fixture.local_base.schema());
  ASSERT_OK(cells.Set({20, 12}, std::vector<double>{1.0}));
  ASSERT_OK(cells.Set({4, 20}, std::vector<double>{2.0}));
  ArraySchema schema("delta", cells.schema().dims(), cells.schema().attrs());
  ASSERT_OK_AND_ASSIGN(
      DistributedArray delta,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                               fixture.catalog.get(), fixture.cluster.get()));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  ASSERT_OK(status);

  EnableTelemetry();
  MetricsRegistry::Global().ResetForTesting();
  TripleSet empty_triples;
  MaintenancePlan empty_plan;
  ASSERT_OK_AND_ASSIGN(
      ExecutionStats stats,
      ExecuteForView(empty_plan, empty_triples, fixture.view.get(), &delta,
                     nullptr));
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  DisableTelemetry();

  EXPECT_GT(stats.delta_chunks_merged, 0u);
  EXPECT_GT(snapshot.counter(CounterId::kStoreChunksAliased), 0u)
      << "delta-to-base fold should ride the handle path";
  EXPECT_EQ(snapshot.counter(CounterId::kStoreChunksDeepCopied), 0u)
      << "no store should deep-copy during a fresh-base fold";
  EXPECT_EQ(snapshot.counter(CounterId::kStoreCowBreaks), 0u);
  ASSERT_OK_AND_ASSIGN(SparseArray base_now,
                       fixture.view->left_base().Gather());
  EXPECT_TRUE(base_now.Has({20, 12}));
  EXPECT_TRUE(base_now.Has({4, 20}));
}

TEST(ExecutorTest, ViewHomeRelocationMovesChunkAndCatalog) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(604));
  Catalog* catalog = exec_fixture.fixture.catalog.get();
  const ArrayId view_id = exec_fixture.fixture.view->array().id();
  // Build a baseline plan and forcibly relocate every affected existing
  // view chunk to node 2.
  ASSERT_OK_AND_ASSIGN(
      MaintenancePlan plan,
      PlanBaseline(*exec_fixture.fixture.view, exec_fixture.triples, 3));
  for (auto& [v, home] : plan.view_home) home = 2;
  ASSERT_OK(ExecuteForView(plan, exec_fixture.triples,
                           exec_fixture.fixture.view.get(),
                           exec_fixture.delta.get(), nullptr)
                .status());
  for (const auto& [v, home] : plan.view_home) {
    EXPECT_EQ(catalog->NodeOf(view_id, v).value(), 2);
    EXPECT_TRUE(
        exec_fixture.fixture.cluster->store(2).Contains(view_id, v));
  }
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*exec_fixture.fixture.view));
}

TEST(ExecutorTest, NullViewRejected) {
  TripleSet triples;
  MaintenancePlan plan;
  EXPECT_TRUE(ExecuteMaintenancePlan(plan, triples, nullptr, nullptr, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(ExecutorTest, MissingLeftDeltaRejected) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(605));
  // The plan ships a left-delta chunk, but no left delta was supplied.
  MaintenancePlan plan;
  plan.transfers.push_back(
      {MChunkRef{ChunkSide::kLeftDelta, 0}, kCoordinatorNode, 0});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     /*left_delta=*/nullptr, /*right_delta=*/nullptr,
                     "plan references a missing left delta");
}

TEST(ExecutorTest, MissingRightDeltaRejected) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(606));
  MaintenancePlan plan;
  plan.transfers.push_back(
      {MChunkRef{ChunkSide::kRightDelta, 0}, kCoordinatorNode, 0});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), /*right_delta=*/nullptr,
                     "plan references a missing right delta");
}

TEST(ExecutorTest, JoinOnMissingDeltaRejectedBeforeFanOut) {
  // A join whose pair references the (absent) delta must fail with the
  // missing-delta message, not crash inside a worker task.
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(607));
  ASSERT_FALSE(exec_fixture.triples.pairs.empty());
  MaintenancePlan plan;
  plan.joins.push_back({0, 0});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     /*left_delta=*/nullptr, /*right_delta=*/nullptr,
                     "plan references a missing left delta");
}

TEST(ExecutorTest, UnknownJoinNodeRejected) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(608));
  ASSERT_FALSE(exec_fixture.triples.pairs.empty());
  MaintenancePlan plan;
  plan.joins.push_back({0, 99});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr,
                     "join assigned to unknown node id 99");
}

TEST(ExecutorTest, JoinAssignedToCoordinatorRejected) {
  // The coordinator never executes joins; a plan placing one there is a
  // planner bug, reported as Internal instead of tripping a CHECK.
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(609));
  ASSERT_FALSE(exec_fixture.triples.pairs.empty());
  MaintenancePlan plan;
  plan.joins.push_back({0, kCoordinatorNode});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr,
                     "join assigned to unknown node id -1");
}

TEST(ExecutorTest, UnknownTransferNodeRejected) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(610));
  MaintenancePlan plan;
  plan.transfers.push_back(
      {MChunkRef{ChunkSide::kLeftDelta, 0}, kCoordinatorNode, 42});
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr,
                     "transfer destination references unknown node id 42");
}

TEST(ExecutorTest, UnknownViewHomeRejected) {
  ASSERT_OK_AND_ASSIGN(auto exec_fixture, MakeExecFixture(611));
  MaintenancePlan plan;
  plan.view_home[0] = 17;
  ExpectPlanRejected(plan, exec_fixture.triples,
                     exec_fixture.fixture.view.get(),
                     exec_fixture.delta.get(), nullptr,
                     "view home references unknown node id 17");
}

TEST(ExecutorTest, EmptyPlanWithoutDeltasIsANoOp) {
  // No joins, no transfers, no deltas: nothing to do, and that is OK — not
  // a crash, not an error.
  ASSERT_OK_AND_ASSIGN(
      auto fixture, MakeCountViewFixture(3, 40, Shape::L1Ball(2, 1), 612));
  TripleSet empty_triples;
  MaintenancePlan empty_plan;
  ASSERT_OK_AND_ASSIGN(
      ExecutionStats stats,
      ExecuteForView(empty_plan, empty_triples, fixture.view.get(), nullptr,
                     nullptr));
  EXPECT_EQ(stats.joins_executed, 0u);
  EXPECT_EQ(stats.fragments_merged, 0u);
  EXPECT_EQ(stats.delta_chunks_merged, 0u);
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*fixture.view));
}

TEST(ExecutorTest, ParallelExecutionMatchesSerialBitForBit) {
  // The same plan executed on a 1-thread and a 4-thread cluster must leave
  // identical views and identical simulated clocks.
  auto run = [](int threads) -> Result<std::pair<SparseArray, double>> {
    ExecFixture f;
    AVM_ASSIGN_OR_RETURN(
        f.fixture,
        MakeCountViewFixture(3, 80, Shape::L1Ball(2, 1), 613,
                             /*with_sum=*/true, "round-robin", threads));
    Rng rng(614);
    SparseArray cells =
        testing_util::RandomDisjointDelta(f.fixture.local_base, 30, &rng);
    ArraySchema schema("delta", cells.schema().dims(),
                       cells.schema().attrs());
    AVM_ASSIGN_OR_RETURN(
        DistributedArray delta,
        DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                                 f.fixture.catalog.get(),
                                 f.fixture.cluster.get()));
    Status status = Status::OK();
    cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
      if (!status.ok()) return;
      status = delta.PutChunk(id, chunk, kCoordinatorNode);
    });
    AVM_RETURN_IF_ERROR(status);
    f.delta = std::make_unique<DistributedArray>(std::move(delta));
    AVM_ASSIGN_OR_RETURN(f.triples,
                         GenerateTriples(ViewSet(f.fixture.view.get()),
                                         f.delta.get(), nullptr));
    AVM_ASSIGN_OR_RETURN(MaintenancePlan plan,
                         PlanBaseline(*f.fixture.view, f.triples, 3));
    AVM_RETURN_IF_ERROR(ExecuteForView(plan, f.triples, f.fixture.view.get(),
                                       f.delta.get(), nullptr)
                            .status());
    AVM_ASSIGN_OR_RETURN(SparseArray view_content,
                         f.fixture.view->array().Gather());
    return std::make_pair(std::move(view_content),
                          f.fixture.cluster->MakespanSeconds());
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_OK(serial.status());
  ASSERT_OK(parallel.status());
  EXPECT_TRUE(serial.value().first.ContentEquals(parallel.value().first,
                                                 /*tolerance=*/0.0));
  EXPECT_EQ(serial.value().second, parallel.value().second);
}

}  // namespace
}  // namespace avm
