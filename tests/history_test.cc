#include "maintenance/history.h"

#include <gtest/gtest.h>

#include "maintenance/array_reassigner.h"
#include "maintenance/differential_planner.h"
#include "maintenance/triple_gen.h"
#include "tests/test_util.h"

namespace avm {
namespace {

TEST(BatchHistoryTest, WindowEvictsOldest) {
  BatchHistory history(3);
  for (int i = 0; i < 5; ++i) {
    HistoryBatch batch;
    batch.total_pair_bytes = static_cast<uint64_t>(i);
    history.Push(std::move(batch));
  }
  EXPECT_EQ(history.size(), 3u);
  // Newest first: 4, 3, 2.
  EXPECT_EQ(history.batches()[0].total_pair_bytes, 4u);
  EXPECT_EQ(history.batches()[2].total_pair_bytes, 2u);
}

TEST(BatchHistoryTest, ClearEmpties) {
  BatchHistory history(2);
  history.Push(HistoryBatch{});
  EXPECT_FALSE(history.empty());
  history.Clear();
  EXPECT_TRUE(history.empty());
}

TEST(MakeHistoryBatchTest, ExpandsTriplesPerOperand) {
  TripleSet triples;
  JoinPair pair;
  pair.a = {ChunkSide::kLeftDelta, 7};
  pair.b = {ChunkSide::kLeftBase, 9};
  pair.dir_ab = true;
  pair.bytes = 100;
  pair.view_targets_ab = {3, 4};
  triples.bytes[pair.a] = 40;
  triples.bytes[pair.b] = 60;
  triples.location[pair.a] = kCoordinatorNode;
  triples.location[pair.b] = 0;
  triples.pairs.push_back(pair);

  const HistoryBatch batch = MakeHistoryBatch(triples);
  // Two view targets x two operands = 4 score entries.
  ASSERT_EQ(batch.entries.size(), 4u);
  EXPECT_EQ(batch.total_pair_bytes, 200u);  // B_pq per (pair, v) triple
  int with_7 = 0, with_9 = 0;
  for (const auto& e : batch.entries) {
    if (e.array_chunk == 7) {
      ++with_7;
      EXPECT_EQ(e.bytes, 40u);
      EXPECT_FALSE(e.right_array);
    }
    if (e.array_chunk == 9) {
      ++with_9;
      EXPECT_EQ(e.bytes, 60u);
    }
  }
  EXPECT_EQ(with_7, 2);
  EXPECT_EQ(with_9, 2);
}

TEST(MakeHistoryBatchTest, SelfPairCountsOperandOnce) {
  TripleSet triples;
  JoinPair pair;
  pair.a = {ChunkSide::kLeftDelta, 7};
  pair.b = {ChunkSide::kLeftDelta, 7};
  pair.dir_ab = true;
  pair.bytes = 80;
  pair.view_targets_ab = {7};
  triples.bytes[pair.a] = 40;
  triples.location[pair.a] = kCoordinatorNode;
  triples.pairs.push_back(pair);
  const HistoryBatch batch = MakeHistoryBatch(triples);
  EXPECT_EQ(batch.entries.size(), 1u);
}

// Integration: array reassignment with history moves hot chunks to their
// view homes once the replicas exist.
TEST(ArrayReassignerTest, MovesOnlyToReplicatedNodes) {
  ASSERT_OK_AND_ASSIGN(
      auto fixture,
      testing_util::MakeCountViewFixture(4, 100, Shape::L1Ball(2, 1), 700));
  Rng rng(701);
  SparseArray cells =
      testing_util::RandomDisjointDelta(fixture.local_base, 40, &rng);
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
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  PlannerOptions options;
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult stage1,
      PlanDifferentialView(*fixture.view, triples, 4,
                           fixture.cluster->cost_model(), options));
  BatchHistory history(options.history_window);
  ASSERT_OK(ReassignArrayChunks(*fixture.view, triples, history, 4, options,
                                fixture.cluster->cost_model(),
                                stage1.replicas, &stage1.plan));
  // Every planned move of a base chunk must target a node holding a
  // replica; delta moves must target a real worker.
  for (const auto& move : stage1.plan.array_moves) {
    EXPECT_GE(move.node, 0);
    EXPECT_LT(move.node, 4);
    if (!IsDeltaSide(move.chunk.side)) {
      auto rep = stage1.replicas.find(move.chunk);
      ASSERT_TRUE(rep != stage1.replicas.end());
      EXPECT_TRUE(rep->second.count(move.node) > 0);
    }
  }
}

TEST(ArrayReassignerTest, ZeroCpuBudgetBlocksBaseMoves) {
  ASSERT_OK_AND_ASSIGN(
      auto fixture,
      testing_util::MakeCountViewFixture(4, 100, Shape::L1Ball(2, 1), 702));
  Rng rng(703);
  SparseArray cells =
      testing_util::RandomDisjointDelta(fixture.local_base, 40, &rng);
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
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  PlannerOptions options;
  options.cpu_threshold_slack = 0.0;  // no budget at all
  ASSERT_OK_AND_ASSIGN(
      DifferentialPlanResult stage1,
      PlanDifferentialView(*fixture.view, triples, 4,
                           fixture.cluster->cost_model(), options));
  BatchHistory history(options.history_window);
  ASSERT_OK(ReassignArrayChunks(*fixture.view, triples, history, 4, options,
                                fixture.cluster->cost_model(),
                                stage1.replicas, &stage1.plan));
  // Only the delta fallback rule may fire; base chunks stay put.
  for (const auto& move : stage1.plan.array_moves) {
    EXPECT_TRUE(IsDeltaSide(move.chunk.side));
  }
}

}  // namespace
}  // namespace avm
