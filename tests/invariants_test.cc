#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "array/chunk.h"
#include "array/chunk_grid.h"
#include "array/sparse_array.h"
#include "common/check.h"
#include "maintenance/baseline_planner.h"
#include "maintenance/executor.h"
#include "maintenance/makespan_tracker.h"
#include "maintenance/plan_validator.h"
#include "maintenance/triple_gen.h"
#include "shape/shape.h"
#include "tests/test_util.h"

namespace avm {

/// Befriended by Chunk: lets the contract tests corrupt internal state
/// deliberately to prove CheckInvariants catches each class of damage.
struct ChunkTestPeer {
  static std::vector<uint64_t>& offsets(Chunk& c) { return c.offsets_; }
  static std::vector<int64_t>& coords(Chunk& c) { return c.coords_; }
  static std::vector<double>& values(Chunk& c) { return c.values_; }
  static std::vector<uint64_t>& bitmap(Chunk& c) { return c.bitmap_; }
  static std::vector<double>& lanes(Chunk& c) { return c.lanes_; }
  static std::vector<int64_t>& dense_origin(Chunk& c) {
    return c.dense_origin_;
  }
  static size_t& dense_cells(Chunk& c) { return c.dense_cells_; }
};

namespace {

using testing_util::Make2DSchema;
using testing_util::MakeCountViewFixture;

/// A populated chunk on a known grid, with its ChunkId.
struct ChunkOnGrid {
  ChunkGrid grid;
  Chunk chunk{2, 1};
  ChunkId id = 0;
};

ChunkOnGrid MakePopulatedChunk() {
  ChunkOnGrid out;
  out.grid = ChunkGrid(Make2DSchema("inv"));
  const CellCoord cells[] = {{2, 3}, {5, 1}, {7, 6}, {1, 2}};
  out.id = out.grid.IdOfCell(cells[0]);
  for (const CellCoord& coord : cells) {
    const auto slot = out.grid.SlotOfCell(coord);
    AVM_CHECK_EQ(slot.id, out.id);
    out.chunk.UpsertCell(slot.offset, coord, std::vector<double>{1.0});
  }
  return out;
}

TEST(ChunkInvariantsTest, HealthyChunkPasses) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedChunk();
  t.chunk.CheckInvariants();
  t.chunk.CheckInvariants(&t.grid, t.id);
}

TEST(ChunkInvariantsTest, CorruptedOffsetIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedChunk();
  // Point row 0 at an offset the index does not map to it.
  ChunkTestPeer::offsets(t.chunk)[0] += 1;
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, TruncatedCoordBufferIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedChunk();
  ChunkTestPeer::coords(t.chunk).pop_back();
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, OversizedValueBufferIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedChunk();
  ChunkTestPeer::values(t.chunk).push_back(99.0);
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, CellOutsideChunkBoxIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedChunk();
  // Structurally intact, geometrically wrong: the coordinate now lies in a
  // different chunk, so only the grid-aware check can see the damage.
  ChunkTestPeer::coords(t.chunk)[0] += 100;
  t.chunk.CheckInvariants();
  EXPECT_THROW(t.chunk.CheckInvariants(&t.grid, t.id), CheckFailedError);
}

/// The populated chunk converted to the dense representation.
ChunkOnGrid MakePopulatedDenseChunk() {
  ChunkOnGrid t = MakePopulatedChunk();
  t.chunk.Densify(t.grid, t.id);
  AVM_CHECK(t.chunk.rep() == ChunkRep::kDense);
  return t;
}

TEST(ChunkInvariantsTest, HealthyDenseChunkPasses) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedDenseChunk();
  t.chunk.CheckInvariants();
  t.chunk.CheckInvariants(&t.grid, t.id);
}

TEST(ChunkInvariantsTest, DensePopulationDriftIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedDenseChunk();
  // Stored cell count no longer matches the bitmap population.
  ChunkTestPeer::dense_cells(t.chunk) += 1;
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, NonzeroVacantLaneIsCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedDenseChunk();
  // Find a vacant slot and dirty its value lane: the branch-free kernel
  // would silently fold this phantom value, so the audit must catch it.
  const auto dv = t.chunk.dense_view();
  uint64_t vacant = dv.volume;
  for (uint64_t off = 0; off < dv.volume; ++off) {
    if (!((dv.bitmap[off >> 6] >> (off & 63)) & 1u)) {
      vacant = off;
      break;
    }
  }
  ASSERT_LT(vacant, dv.volume);
  ChunkTestPeer::lanes(t.chunk)[vacant] = 123.0;
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, TrailingBitmapBitsAreCaught) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedDenseChunk();
  const auto dv = t.chunk.dense_view();
  ASSERT_NE(dv.volume % 64, 0u) << "test needs a partial trailing word";
  ChunkTestPeer::bitmap(t.chunk).back() |= uint64_t{1} << 63;
  // Keep the population consistent so only the trailing-bit clause fires.
  ChunkTestPeer::dense_cells(t.chunk) += 1;
  EXPECT_THROW(t.chunk.CheckInvariants(), CheckFailedError);
}

TEST(ChunkInvariantsTest, DenseBoxDriftIsCaughtByTheGridAwareCheck) {
  ScopedThrowingCheckHandler guard;
  ChunkOnGrid t = MakePopulatedDenseChunk();
  ChunkTestPeer::dense_origin(t.chunk)[0] += 8;
  // Structurally self-consistent, geometrically wrong for this grid slot.
  t.chunk.CheckInvariants();
  EXPECT_THROW(t.chunk.CheckInvariants(&t.grid, t.id), CheckFailedError);
}

TEST(ChunkInvariantsTest, SparseArrayAuditCoversItsChunks) {
  ScopedThrowingCheckHandler guard;
  SparseArray array(Make2DSchema("inv"));
  Rng rng(99);
  testing_util::FillRandom(&array, 50, &rng);
  array.CheckInvariants();
}

TEST(MakespanTrackerInvariantsTest, NegativeChargeIsCaughtInDebug) {
  ScopedThrowingCheckHandler guard;
  MakespanTracker tracker(3);
  tracker.AddNetwork(0, 1.0);  // positive charges are always fine
  tracker.AddCpu(1, 2.0);
  if (kDebugChecksEnabled) {
    EXPECT_THROW(tracker.AddNetwork(0, -0.5), CheckFailedError);
    EXPECT_THROW(tracker.AddCpu(2, -1.0), CheckFailedError);
  }
  ConcurrentClockBank bank(3);
  bank.AddNetwork(0, 1.0);
  if (kDebugChecksEnabled) {
    EXPECT_THROW(bank.AddCpu(0, -1.0), CheckFailedError);
  }
}

/// A view fixture plus the triples and a valid baseline plan for one batch.
struct PlanFixture {
  testing_util::ViewFixture fixture;
  std::unique_ptr<DistributedArray> delta;
  TripleSet triples;
  MaintenancePlan plan;
  int num_workers = 3;

  const CostModel* cost() const { return &fixture.cluster->cost_model(); }
};

Result<PlanFixture> MakePlanFixture(uint64_t seed) {
  PlanFixture out;
  AVM_ASSIGN_OR_RETURN(
      out.fixture,
      MakeCountViewFixture(out.num_workers, 80, Shape::L1Ball(2, 1), seed));
  Rng rng(seed + 1);
  SparseArray cells =
      testing_util::RandomDisjointDelta(out.fixture.local_base, 30, &rng);
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
  AVM_ASSIGN_OR_RETURN(
      out.plan,
      PlanBaseline(*out.fixture.view, out.triples, out.num_workers));
  return out;
}

TEST(PlanValidatorTest, HealthyTriplesAndPlanPass) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(700));
  ASSERT_FALSE(f.triples.pairs.empty());
  ScopedThrowingCheckHandler guard;
  ValidateTripleSet(f.triples, f.num_workers);
  ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost());
}

TEST(PlanValidatorTest, PairWithoutDirectionIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(701));
  ASSERT_FALSE(f.triples.pairs.empty());
  f.triples.pairs[0].dir_ab = false;
  f.triples.pairs[0].dir_ba = false;
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(ValidateTripleSet(f.triples, f.num_workers), CheckFailedError);
}

TEST(PlanValidatorTest, OperandWithoutLocationIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(702));
  ASSERT_FALSE(f.triples.pairs.empty());
  f.triples.location.erase(f.triples.pairs[0].a);
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(ValidateTripleSet(f.triples, f.num_workers), CheckFailedError);
}

TEST(PlanValidatorTest, UnjoinedPairIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(703));
  ASSERT_FALSE(f.plan.joins.empty());
  f.plan.joins.pop_back();
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, DoublyJoinedPairIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(704));
  ASSERT_FALSE(f.plan.joins.empty());
  f.plan.joins.push_back(f.plan.joins.front());
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, MissingColocationTransferIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(705));
  ASSERT_FALSE(f.plan.transfers.empty());
  f.plan.transfers.clear();
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, TransferFromNodeWithoutCopyIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(706));
  ASSERT_FALSE(f.plan.transfers.empty());
  // Delta chunks start at the coordinator; claiming a worker as the source
  // ships a copy that is not there.
  auto& t = f.plan.transfers.front();
  t.from = (t.to + 1) % f.num_workers;
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, UnassignedViewChunkIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(707));
  ASSERT_FALSE(f.plan.view_home.empty());
  f.plan.view_home.erase(f.plan.view_home.begin());
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, StrayViewAssignmentIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(708));
  f.plan.view_home[static_cast<ChunkId>(1u << 20)] = 0;
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, DuplicateArrayMoveIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(709));
  const MChunkRef some_chunk = f.triples.pairs[0].a;
  f.plan.array_moves.push_back({some_chunk, 0});
  f.plan.array_moves.push_back({some_chunk, 1});
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(
      ValidateMaintenancePlan(f.plan, f.triples, f.num_workers, f.cost()),
      CheckFailedError);
}

TEST(PlanValidatorTest, CatalogStoreConsistencyHoldsAndCatchesDrift) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(710));
  Catalog* catalog = f.fixture.catalog.get();
  Cluster* cluster = f.fixture.cluster.get();
  const ArrayId base_id = f.fixture.view->left_base().id();
  const std::vector<ArrayId> arrays = {base_id, f.fixture.view->array().id()};
  // The audit's no-stray-replica clause only holds after the executor's
  // cleanup step; run the batch to reach a steady state.
  ViewSet set(f.fixture.view.get());
  ASSERT_OK(ExecuteMaintenancePlan(f.plan, f.triples, &set, f.delta.get(),
                                   nullptr)
                .status());
  ScopedThrowingCheckHandler guard;
  ValidateCatalogStoreConsistency(*catalog, *cluster, arrays);

  // Drift the registered size of one base chunk away from the stored bytes.
  const std::vector<ChunkId> ids = catalog->ChunkIdsOf(base_id);
  ASSERT_FALSE(ids.empty());
  const uint64_t bytes = catalog->ChunkBytes(base_id, ids[0]);
  catalog->SetChunkBytes(base_id, ids[0], bytes + 8);
  EXPECT_THROW(ValidateCatalogStoreConsistency(*catalog, *cluster, arrays),
               CheckFailedError);
  catalog->SetChunkBytes(base_id, ids[0], bytes);
  ValidateCatalogStoreConsistency(*catalog, *cluster, arrays);
}

TEST(PlanValidatorTest, UnregisteredReplicaIsCaught) {
  ASSERT_OK_AND_ASSIGN(PlanFixture f, MakePlanFixture(711));
  Catalog* catalog = f.fixture.catalog.get();
  Cluster* cluster = f.fixture.cluster.get();
  const ArrayId base_id = f.fixture.view->left_base().id();
  const std::vector<ArrayId> arrays = {base_id, f.fixture.view->array().id()};
  ViewSet set(f.fixture.view.get());
  ASSERT_OK(ExecuteMaintenancePlan(f.plan, f.triples, &set, f.delta.get(),
                                   nullptr)
                .status());
  {
    ScopedThrowingCheckHandler guard;
    ValidateCatalogStoreConsistency(*catalog, *cluster, arrays);
  }
  const std::vector<ChunkId> ids = catalog->ChunkIdsOf(base_id);
  ASSERT_FALSE(ids.empty());
  ASSERT_OK_AND_ASSIGN(NodeId primary, catalog->NodeOf(base_id, ids[0]));
  const NodeId other = (primary + 1) % f.num_workers;
  const Chunk* chunk = cluster->store(primary).Get(base_id, ids[0]);
  ASSERT_NE(chunk, nullptr);
  cluster->store(other).Put(base_id, ids[0], Chunk(*chunk));
  ScopedThrowingCheckHandler guard;
  EXPECT_THROW(ValidateCatalogStoreConsistency(*catalog, *cluster, arrays),
               CheckFailedError);
}

}  // namespace
}  // namespace avm
