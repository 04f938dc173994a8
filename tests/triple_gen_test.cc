#include "maintenance/triple_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

namespace avm {
namespace {

using testing_util::Make2DSchema;
using testing_util::MakeCountViewFixture;

/// Registers a delta array holding `cells` at the coordinator.
Result<DistributedArray> MakeDelta(const testing_util::ViewFixture& fixture,
                                   const SparseArray& cells,
                                   const std::string& name = "delta") {
  ArraySchema schema(name, cells.schema().dims(), cells.schema().attrs());
  AVM_ASSIGN_OR_RETURN(
      DistributedArray delta,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(),
                               fixture.catalog.get(), fixture.cluster.get()));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  AVM_RETURN_IF_ERROR(status);
  return delta;
}

TEST(TripleGenTest, EmptyDeltaYieldsNoPairs) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 50, Shape::L1Ball(2, 1)));
  SparseArray empty(fixture.local_base.schema());
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, empty));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  EXPECT_TRUE(triples.pairs.empty());
  EXPECT_EQ(triples.num_triples(), 0u);
}

TEST(TripleGenTest, IsolatedDeltaChunkHasOnlySelfPair) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 0, Shape::L1Ball(2, 1)));
  SparseArray cells(fixture.local_base.schema());
  ASSERT_OK(cells.Set({20, 12}, std::vector<double>{1.0}));
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  ASSERT_EQ(triples.pairs.size(), 1u);
  EXPECT_EQ(triples.pairs[0].a, triples.pairs[0].b);
  EXPECT_EQ(triples.pairs[0].a.side, ChunkSide::kLeftDelta);
  EXPECT_TRUE(triples.pairs[0].dir_ab);
}

TEST(TripleGenTest, DeltaNextToBaseProducesBothDirections) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 0, Shape::L1Ball(2, 1)));
  // Seed one base cell, then a delta cell in the adjacent chunk.
  SparseArray base_cells(fixture.local_base.schema());
  ASSERT_OK(base_cells.Set({8, 6}, std::vector<double>{1.0}));
  ASSERT_OK(fixture.view->left_base().Ingest(base_cells));
  SparseArray delta_cells(fixture.local_base.schema());
  ASSERT_OK(delta_cells.Set({9, 6}, std::vector<double>{1.0}));
  ASSERT_OK_AND_ASSIGN(DistributedArray delta,
                       MakeDelta(fixture, delta_cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  // Pairs: delta self-pair plus (delta, base-neighbor) with both directions
  // (symmetric shape).
  bool found_cross = false;
  for (const auto& pair : triples.pairs) {
    const bool cross = IsDeltaSide(pair.a.side) != IsDeltaSide(pair.b.side);
    if (cross) {
      found_cross = true;
      EXPECT_TRUE(pair.dir_ab);
      EXPECT_TRUE(pair.dir_ba);
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(TripleGenTest, AsymmetricShapeSplitsDirections) {
  // Shape looks only backward along x: the delta cell at larger x sees the
  // base cell, but not vice versa.
  auto shape = Shape::FromOffsets(2, {{0, 0}, {-8, 0}});
  ASSERT_OK(shape.status());
  ASSERT_OK_AND_ASSIGN(auto fixture, MakeCountViewFixture(3, 0, *shape));
  SparseArray base_cells(fixture.local_base.schema());
  ASSERT_OK(base_cells.Set({8, 6}, std::vector<double>{1.0}));
  ASSERT_OK(fixture.view->left_base().Ingest(base_cells));
  SparseArray delta_cells(fixture.local_base.schema());
  ASSERT_OK(delta_cells.Set({16, 6}, std::vector<double>{1.0}));
  ASSERT_OK_AND_ASSIGN(DistributedArray delta,
                       MakeDelta(fixture, delta_cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  // The cross pair must run with the *delta* as the group-by side only.
  for (const auto& pair : triples.pairs) {
    if (IsDeltaSide(pair.a.side) != IsDeltaSide(pair.b.side)) {
      const bool delta_is_a = IsDeltaSide(pair.a.side);
      EXPECT_EQ(pair.dir_ab, delta_is_a);
      EXPECT_EQ(pair.dir_ba, !delta_is_a);
    }
  }
}

TEST(TripleGenTest, LocationsAndSizesSnapshotted) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 80, Shape::L1Ball(2, 1), 5));
  Rng rng(6);
  SparseArray cells =
      testing_util::RandomDisjointDelta(fixture.local_base, 30, &rng);
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  for (const auto& pair : triples.pairs) {
    for (const MChunkRef& ref : {pair.a, pair.b}) {
      ASSERT_TRUE(triples.location.count(ref) > 0);
      ASSERT_TRUE(triples.bytes.count(ref) > 0);
      EXPECT_GT(triples.bytes.at(ref), 0u);
      if (IsDeltaSide(ref.side)) {
        EXPECT_EQ(triples.location.at(ref), kCoordinatorNode);
      } else {
        EXPECT_GE(triples.location.at(ref), 0);
      }
    }
    EXPECT_EQ(pair.bytes,
              triples.bytes.at(pair.a) + triples.bytes.at(pair.b));
  }
}

TEST(TripleGenTest, ViewTargetsCoverDeltaChunks) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 80, Shape::L1Ball(2, 1), 7));
  Rng rng(8);
  SparseArray cells =
      testing_util::RandomDisjointDelta(fixture.local_base, 30, &rng);
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));
  // Every delta chunk's view image must appear among some pair's targets
  // (the view inherits the base grid, so ids match).
  std::set<ChunkId> targeted;
  for (const auto& pair : triples.pairs) {
    for (ChunkId v : pair.AllViewTargets()) targeted.insert(v);
  }
  for (ChunkId d : cells.ChunkIds()) {
    EXPECT_TRUE(targeted.count(d) > 0) << "delta chunk " << d;
  }
}

TEST(TripleGenTest, PairsCoverEveryActualCellMatch) {
  // Property: for random data, every (delta cell, base cell) match under
  // the shape is covered by some generated pair with the right direction.
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 120, Shape::LinfBall(2, 2), 9));
  Rng rng(10);
  SparseArray cells =
      testing_util::RandomDisjointDelta(fixture.local_base, 40, &rng);
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, cells));
  ASSERT_OK_AND_ASSIGN(
      TripleSet triples,
      GenerateTriples(ViewSet(fixture.view.get()), &delta, nullptr));

  std::set<std::pair<std::pair<int, ChunkId>, std::pair<int, ChunkId>>>
      directions;
  for (const auto& pair : triples.pairs) {
    auto key = [](const MChunkRef& r) {
      return std::pair<int, ChunkId>{IsDeltaSide(r.side) ? 1 : 0, r.id};
    };
    if (pair.dir_ab) directions.insert({key(pair.a), key(pair.b)});
    if (pair.dir_ba) directions.insert({key(pair.b), key(pair.a)});
  }
  const ChunkGrid& grid = fixture.view->left_base().grid();
  const Shape& shape = fixture.view->definition().shape;
  // delta -> base matches.
  cells.ForEachCell([&](std::span<const int64_t> xs, std::span<const double>) {
    CellCoord x(xs.begin(), xs.end());
    for (const auto& o : shape.offsets()) {
      CellCoord y = {x[0] + o[0], x[1] + o[1]};
      if (fixture.local_base.Has(y)) {
        EXPECT_TRUE(directions.count({{1, grid.IdOfCell(x)},
                                      {0, grid.IdOfCell(y)}}) > 0);
      }
      if (cells.Has(y)) {
        EXPECT_TRUE(directions.count({{1, grid.IdOfCell(x)},
                                      {1, grid.IdOfCell(y)}}) > 0);
      }
    }
  });
  // base -> delta matches.
  fixture.local_base.ForEachCell(
      [&](std::span<const int64_t> xs, std::span<const double>) {
        CellCoord x(xs.begin(), xs.end());
        for (const auto& o : shape.offsets()) {
          CellCoord y = {x[0] + o[0], x[1] + o[1]};
          if (cells.Has(y)) {
            EXPECT_TRUE(directions.count({{0, grid.IdOfCell(x)},
                                          {1, grid.IdOfCell(y)}}) > 0);
          }
        }
      });
}

TEST(TripleGenTest, RejectsInvalidInputs) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 10, Shape::L1Ball(2, 1)));
  EXPECT_TRUE(GenerateTriples(ViewSet(fixture.view.get()), nullptr, nullptr)
                  .status()
                  .IsInvalidArgument());
  SparseArray cells(fixture.local_base.schema());
  ASSERT_OK_AND_ASSIGN(DistributedArray delta, MakeDelta(fixture, cells));
  // Self-join views reject a right delta.
  EXPECT_TRUE(GenerateTriples(ViewSet(fixture.view.get()), &delta, &delta)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace avm
