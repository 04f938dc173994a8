#include "join/multiview_kernel.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "join/pair_enumeration.h"
#include "maintenance/deletions.h"
#include "maintenance/maintainer.h"
#include "serve/epoch_manager.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"
#include "view/view_set.h"

namespace avm {
namespace {

using testing_util::Make2DSchema;
using testing_util::MakeCountViewFixture;
using testing_util::RandomDisjointDelta;
using testing_util::ViewMatchesRecompute;

AggregateLayout CountLayout() {
  auto layout =
      AggregateLayout::Create({{AggregateFunction::kCount, 0, "cnt"}}, 1);
  AVM_CHECK(layout.ok());
  return std::move(layout).value();
}

AggregateLayout CountSumLayout() {
  auto layout = AggregateLayout::Create({{AggregateFunction::kCount, 0, "c"},
                                         {AggregateFunction::kSum, 0, "s"}},
                                        1);
  AVM_CHECK(layout.ok());
  return std::move(layout).value();
}

std::vector<const Shape*> ShapePointers(const std::vector<Shape>& shapes) {
  std::vector<const Shape*> out;
  for (const Shape& shape : shapes) out.push_back(&shape);
  return out;
}

/// Flattens a fragment map to (chunk, offset-coord) -> state for exact
/// comparison.
std::map<std::pair<ChunkId, CellCoord>, std::vector<double>> Flatten(
    const std::map<ChunkId, Chunk>& fragments) {
  std::map<std::pair<ChunkId, CellCoord>, std::vector<double>> out;
  for (const auto& [v, frag] : fragments) {
    frag.ForEachCell([&](std::span<const int64_t> coord,
                         std::span<const double> state) {
      out[{v, CellCoord(coord.begin(), coord.end())}] =
          std::vector<double>(state.begin(), state.end());
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// ViewSet registry
// ---------------------------------------------------------------------------

TEST(ViewSetTest, ValidatesMembership) {
  ASSERT_OK_AND_ASSIGN(auto f1,
                       MakeCountViewFixture(3, 60, Shape::L1Ball(2, 1), 11));
  ViewSet set;
  EXPECT_TRUE(set.AddView(nullptr).IsInvalidArgument());
  ASSERT_OK(set.AddView(f1.view.get()));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.primary(), f1.view.get());
  // Same view (and same name) cannot join twice.
  EXPECT_TRUE(set.AddView(f1.view.get()).IsInvalidArgument());
  // A view over a different base array (different universe) is rejected.
  ASSERT_OK_AND_ASSIGN(auto f2,
                       MakeCountViewFixture(3, 60, Shape::LinfBall(2, 1), 12));
  EXPECT_TRUE(set.AddView(f2.view.get()).IsInvalidArgument());
  // K=1 union is exactly the primary's shape — the same object, not a copy.
  const Shape& u = set.union_shape();
  EXPECT_EQ(u.offsets(), f1.view->definition().shape.offsets());
  EXPECT_EQ(&u, &f1.view->definition().shape);
}

TEST(ViewSetTest, UnionShapeCoversAllMembers) {
  ASSERT_OK_AND_ASSIGN(auto fixture,
                       MakeCountViewFixture(3, 60, Shape::L1Ball(2, 1), 13));
  // Build a second view over the SAME base.
  ViewDefinition def;
  def.view_name = "view2";
  def.left_array = "base";
  def.right_array = "base";
  def.mapping = DimMapping::Identity(2);
  def.shape = Shape::LinfBall(2, 1);
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
  ASSERT_OK_AND_ASSIGN(
      MaterializedView view2,
      CreateMaterializedView(std::move(def), MakeRoundRobinPlacement(),
                             fixture.catalog.get(), fixture.cluster.get()));
  ViewSet set;
  ASSERT_OK(set.AddView(fixture.view.get()));
  ASSERT_OK(set.AddView(&view2));
  const Shape& u = set.union_shape();
  // L1(1) ⊂ Linf(1) in 2-D, so the union is the Linf ball.
  EXPECT_EQ(u.size(), Shape::LinfBall(2, 1).size());
}

/// Two-array views over base arrays "A" and "B" (and "C", a second right
/// operand): one view per shape, all joining A with B unless
/// `right_of_last` names another right array for the last view. Initial
/// content depends only on `seed`, so two universes built with one seed
/// hold byte-identical bases.
struct TwoArrayUniverse {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<DistributedArray>> bases;
  std::vector<std::unique_ptr<MaterializedView>> views;
  SparseArray a_local;  // mirror of A's initial content
  SparseArray b_local;  // mirror of B's initial content

  TwoArrayUniverse()
      : a_local(Make2DSchema("A")), b_local(Make2DSchema("B")) {}
};

Result<TwoArrayUniverse> MakeTwoArrayUniverse(
    const std::vector<Shape>& shapes, uint64_t seed,
    const std::string& right_of_last = "B") {
  TwoArrayUniverse u;
  u.catalog = std::make_unique<Catalog>();
  u.cluster = std::make_unique<Cluster>(3);
  Rng rng(seed);
  testing_util::FillRandom(&u.a_local, 80, &rng);
  testing_util::FillRandom(&u.b_local, 80, &rng);
  SparseArray c_local(Make2DSchema("C"));
  testing_util::FillRandom(&c_local, 40, &rng);
  for (const SparseArray* local : {&u.a_local, &u.b_local, &c_local}) {
    AVM_ASSIGN_OR_RETURN(
        DistributedArray base,
        DistributedArray::Create(local->schema(), MakeHashPlacement(),
                                 u.catalog.get(), u.cluster.get()));
    AVM_RETURN_IF_ERROR(base.Ingest(*local));
    u.bases.push_back(std::make_unique<DistributedArray>(std::move(base)));
  }
  for (size_t k = 0; k < shapes.size(); ++k) {
    ViewDefinition def;
    def.view_name = "V" + std::to_string(k);
    def.left_array = "A";
    def.right_array = k + 1 == shapes.size() ? right_of_last : "B";
    def.mapping = DimMapping::Identity(2);
    def.shape = shapes[k];
    def.aggregates = {{AggregateFunction::kCount, 0, "cnt"},
                      {AggregateFunction::kSum, 0, "s"}};
    AVM_ASSIGN_OR_RETURN(
        MaterializedView view,
        CreateMaterializedView(std::move(def), MakeRoundRobinPlacement(),
                               u.catalog.get(), u.cluster.get()));
    u.views.push_back(std::make_unique<MaterializedView>(std::move(view)));
  }
  u.cluster->ResetClocks();
  return u;
}

TEST(ViewSetTest, RejectsMemberWithDifferentRightBase) {
  ASSERT_OK_AND_ASSIGN(
      TwoArrayUniverse u,
      MakeTwoArrayUniverse({Shape::L1Ball(2, 1), Shape::LinfBall(2, 1),
                            Shape::LinfBall(2, 2)},
                           81, /*right_of_last=*/"C"));
  ViewSet set;
  ASSERT_OK(set.AddView(u.views[0].get()));
  // Same (A, B) pair: a two-array view joins the set.
  ASSERT_OK(set.AddView(u.views[1].get()));
  // Same left base, different right base (A with C): rejected.
  EXPECT_TRUE(set.AddView(u.views[2].get()).IsInvalidArgument());
  EXPECT_EQ(set.size(), 2u);
}

// ---------------------------------------------------------------------------
// CompiledViewSet masks
// ---------------------------------------------------------------------------

TEST(CompiledViewSetTest, MasksPartitionTheUnion) {
  const ArraySchema schema = Make2DSchema("A", 16, 4, 16, 4);
  const ChunkGrid grid(schema);
  const std::vector<Shape> shapes = {Shape::L1Ball(2, 1),
                                     Shape::LinfBall(2, 1)};
  ASSERT_OK_AND_ASSIGN(CompiledViewSet set,
                       CompiledViewSet::Create(ShapePointers(shapes),
                                               DimMapping::Identity(2), grid));
  ASSERT_EQ(set.num_views(), 2u);
  EXPECT_EQ(set.union_shape().size(), Shape::LinfBall(2, 1).size());
  EXPECT_EQ(set.view_shape_size(0), shapes[0].size());
  EXPECT_EQ(set.view_shape_size(1), shapes[1].size());
  // Axis offsets belong to both balls, diagonals to Linf only.
  EXPECT_EQ(set.MaskOfDelta({0, 1}), 0b11u);
  EXPECT_EQ(set.MaskOfDelta({-1, 0}), 0b11u);
  EXPECT_EQ(set.MaskOfDelta({1, 1}), 0b10u);
  EXPECT_EQ(set.MaskOfDelta({-1, 1}), 0b10u);
  EXPECT_EQ(set.MaskOfDelta({3, 3}), 0u);
  // Each union offset carries at least the union bit pattern of one view.
  uint64_t seen = 0;
  for (uint64_t mask : set.offset_masks()) {
    EXPECT_NE(mask, 0u);
    seen |= mask;
  }
  EXPECT_EQ(seen, 0b11u);
}

TEST(CompiledViewSetTest, RejectsBadInputs) {
  const ArraySchema schema = Make2DSchema("A", 16, 4, 16, 4);
  const ChunkGrid grid(schema);
  EXPECT_TRUE(CompiledViewSet::Create({}, DimMapping::Identity(2), grid)
                  .status()
                  .IsInvalidArgument());
  const std::vector<Shape> mixed_dims = {Shape::L1Ball(2, 1),
                                         Shape::L1Ball(3, 1)};
  EXPECT_TRUE(CompiledViewSet::Create(ShapePointers(mixed_dims),
                                      DimMapping::Identity(2), grid)
                  .status()
                  .IsInvalidArgument());
}

TEST(CompiledViewSetTest, OneMemberSetIsTheCachedSoloShape) {
  const ArraySchema schema = Make2DSchema("A", 16, 4, 16, 4);
  const ChunkGrid grid(schema);
  const DimMapping mapping = DimMapping::Identity(2);
  const Shape shape = Shape::LinfBall(2, 2);
  const Shape* shapes[] = {&shape};
  ASSERT_OK_AND_ASSIGN(CompiledViewSet set,
                       CompiledViewSet::Create(shapes, mapping, grid));
  EXPECT_EQ(set.num_views(), 1u);
  EXPECT_EQ(set.view_shape_size(0), shape.size());
  // The single view pays for no acceptance masks, and its compilation is
  // the very entry the single-view kernel gets from the global cache.
  EXPECT_TRUE(set.offset_masks().empty());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CompiledShape> solo,
                       CompiledShapeCache::Global().Get(shape, mapping, grid));
  EXPECT_EQ(&set.union_compiled(), solo.get());
}

// ---------------------------------------------------------------------------
// Shared-pass kernel: bit-identity against the single-view kernel
// ---------------------------------------------------------------------------

/// Runs the K-lane kernel and K independent single-view kernels over every
/// self-join chunk pair of `array` and requires bitwise-identical fragments
/// per view.
void ExpectKernelBitIdentity(const SparseArray& array,
                             const std::vector<Shape>& shapes,
                             const std::vector<AggregateLayout>& layouts,
                             int multiplicity) {
  const DimMapping mapping = DimMapping::Identity(2);
  const ChunkGrid& grid = array.grid();
  const std::vector<size_t> group_dims = {0, 1};
  const size_t k_views = shapes.size();
  ASSERT_OK_AND_ASSIGN(
      CompiledViewSet set,
      CompiledViewSet::Create(ShapePointers(shapes), mapping, grid));

  std::vector<std::map<ChunkId, Chunk>> multi(k_views);
  std::vector<std::map<ChunkId, Chunk>> solo(k_views);
  std::vector<MultiViewLane> lanes(k_views);
  for (size_t k = 0; k < k_views; ++k) {
    lanes[k] = MultiViewLane{&layouts[k], ViewTarget{&group_dims, &grid},
                             &multi[k]};
  }
  ASSERT_OK_AND_ASSIGN(Shape union_shape, [&]() -> Result<Shape> {
    Shape u = shapes.front();
    for (size_t k = 1; k < shapes.size(); ++k) {
      AVM_ASSIGN_OR_RETURN(u, Shape::Union(u, shapes[k]));
    }
    return u;
  }());

  for (ChunkId p : array.ChunkIds()) {
    for (ChunkId q : EnumerateJoinPartners(
             grid, p, mapping, union_shape, grid,
             [&](ChunkId c) { return array.GetChunk(c) != nullptr; })) {
      const RightOperand rop{array.GetChunk(q), q, &grid};
      ASSERT_OK(MultiViewJoinAggregateChunkPair(*array.GetChunk(p), rop, set,
                                                lanes, multiplicity));
      for (size_t k = 0; k < k_views; ++k) {
        // The solo kernel only sees pairs enumerated under its own shape.
        bool in_own = false;
        for (ChunkId own :
             EnumerateJoinPartners(grid, p, mapping, shapes[k], grid,
                                   [&](ChunkId c) {
                                     return array.GetChunk(c) != nullptr;
                                   })) {
          if (own == q) { in_own = true; break; }
        }
        if (!in_own) continue;
        ASSERT_OK(JoinAggregateChunkPair(*array.GetChunk(p), rop, mapping,
                                         shapes[k], layouts[k],
                                         ViewTarget{&group_dims, &grid},
                                         multiplicity, &solo[k]));
      }
    }
  }
  for (size_t k = 0; k < k_views; ++k) {
    EXPECT_EQ(Flatten(multi[k]), Flatten(solo[k])) << "view " << k;
  }
}

class MultiViewKernelTest : public ::testing::Test {
 protected:
  MultiViewKernelTest() : array_(Make2DSchema("A", 32, 8, 32, 8)) {
    Rng rng(99);
    testing_util::FillRandom(&array_, 150, &rng);
  }
  SparseArray array_;
};

TEST_F(MultiViewKernelTest, SingleLaneMatchesSingleViewKernel) {
  ExpectKernelBitIdentity(array_, {Shape::LinfBall(2, 2)}, {CountSumLayout()},
                          1);
}

TEST_F(MultiViewKernelTest, NestedShapesDemuxBitIdentically) {
  ExpectKernelBitIdentity(
      array_,
      {Shape::L1Ball(2, 1), Shape::LinfBall(2, 1), Shape::LinfBall(2, 2)},
      {CountLayout(), CountSumLayout(), CountSumLayout()}, 1);
}

TEST_F(MultiViewKernelTest, RetractionLanesDemuxBitIdentically) {
  ExpectKernelBitIdentity(array_,
                          {Shape::L1Ball(2, 2), Shape::LinfBall(2, 1)},
                          {CountSumLayout(), CountSumLayout()}, -1);
}

TEST_F(MultiViewKernelTest, ForcedDenseRightChunks) {
  ScopedDensificationMode dense(DensificationMode::kForceDense);
  SparseArray array(Make2DSchema("A", 32, 8, 32, 8));
  Rng rng(77);
  testing_util::FillRandom(&array, 400, &rng);  // dense-ish chunks
  ExpectKernelBitIdentity(array,
                          {Shape::L1Ball(2, 1), Shape::LinfBall(2, 2)},
                          {CountSumLayout(), CountLayout()}, 1);
}

TEST_F(MultiViewKernelTest, ForcedSparseRightChunks) {
  ScopedDensificationMode sparse(DensificationMode::kForceSparse);
  ExpectKernelBitIdentity(array_,
                          {Shape::L1Ball(2, 1), Shape::LinfBall(2, 2)},
                          {CountSumLayout(), CountLayout()}, 1);
}

TEST_F(MultiViewKernelTest, LaneCountMustMatch) {
  const std::vector<Shape> shapes = {Shape::L1Ball(2, 1),
                                     Shape::LinfBall(2, 1)};
  ASSERT_OK_AND_ASSIGN(CompiledViewSet set,
                       CompiledViewSet::Create(ShapePointers(shapes),
                                               DimMapping::Identity(2),
                                               array_.grid()));
  const AggregateLayout layout = CountLayout();
  const std::vector<size_t> group_dims = {0, 1};
  std::map<ChunkId, Chunk> frags;
  std::vector<MultiViewLane> one_lane = {
      MultiViewLane{&layout, ViewTarget{&group_dims, &array_.grid()}, &frags}};
  const Chunk* left = array_.GetChunk(*array_.ChunkIds().begin());
  ASSERT_NE(left, nullptr);
  const RightOperand rop{left, *array_.ChunkIds().begin(), &array_.grid()};
  EXPECT_TRUE(MultiViewJoinAggregateChunkPair(*left, rop, set, one_lane, 1)
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// End-to-end: a set's ViewMaintainer vs independent single-view maintenance
// ---------------------------------------------------------------------------

/// testing_util::ViewSetFixture plus a ready ViewMaintainer over the whole
/// set — every end-to-end test here maintains through the shared pass.
struct SetFixture {
  testing_util::ViewSetFixture universe;
  std::unique_ptr<ViewMaintainer> maintainer;
  ViewSet* set = nullptr;  // universe.set, for terser call sites
  SparseArray local_base;

  SetFixture() : local_base(Make2DSchema("unused")) {}
};

Result<SetFixture> MakeSetFixture(int num_workers, size_t base_cells,
                                  const std::vector<Shape>& shapes,
                                  uint64_t seed, bool with_sum,
                                  MaintenanceMethod method,
                                  int num_threads = 1) {
  SetFixture fixture;
  AVM_ASSIGN_OR_RETURN(
      fixture.universe,
      testing_util::MakeViewSetFixture(num_workers, base_cells, shapes, seed,
                                       with_sum, "round-robin", num_threads));
  fixture.set = fixture.universe.set.get();
  fixture.local_base = std::move(fixture.universe.local_base);
  fixture.maintainer =
      std::make_unique<ViewMaintainer>(fixture.set, method);
  return fixture;
}

/// The shared pass must produce, for every member, the exact bits that
/// maintaining that member alone in an identical universe produces.
void ExpectSharedPassMatchesSolo(const std::vector<Shape>& shapes,
                                 MaintenanceMethod method, uint64_t seed,
                                 size_t batches, size_t batch_cells) {
  ASSERT_OK_AND_ASSIGN(
      SetFixture multi,
      MakeSetFixture(4, 120, shapes, seed, /*with_sum=*/true, method));
  SparseArray occupied = multi.local_base.Clone();
  std::vector<SparseArray> deltas;
  for (size_t b = 0; b < batches; ++b) {
    Rng rng(seed + 1000 + b);
    SparseArray delta = RandomDisjointDelta(occupied, batch_cells, &rng);
    delta.ForEachCell(
        [&](std::span<const int64_t> coord, std::span<const double> values) {
          AVM_CHECK(
              occupied.Set(CellCoord(coord.begin(), coord.end()), values)
                  .ok());
        });
    deltas.push_back(std::move(delta));
  }

  for (const SparseArray& delta : deltas) {
    ASSERT_OK(multi.maintainer->ApplyBatch(delta).status());
  }

  for (size_t k = 0; k < shapes.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(auto solo, MakeCountViewFixture(4, 120, shapes[k],
                                                         seed,
                                                         /*with_sum=*/true));
    ViewMaintainer maintainer(solo.view.get(), method);
    for (const SparseArray& delta : deltas) {
      ASSERT_OK(maintainer.ApplyBatch(delta).status());
    }
    ASSERT_OK_AND_ASSIGN(SparseArray multi_states,
                         multi.set->view(k)->array().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray solo_states, solo.view->array().Gather());
    // Exact (tolerance 0.0): the shared pass is bit-identical, not merely
    // numerically close.
    const bool equal = multi_states.ContentEquals(solo_states, 0.0);
    EXPECT_TRUE(equal) << "view " << k << " diverged from its solo maintenance";
    if (!equal) {
      std::map<CellCoord, std::vector<double>> solo_cells;
      solo_states.ForEachCell([&](std::span<const int64_t> coord,
                                  std::span<const double> state) {
        solo_cells[CellCoord(coord.begin(), coord.end())] =
            std::vector<double>(state.begin(), state.end());
      });
      size_t shown = 0;
      multi_states.ForEachCell([&](std::span<const int64_t> coord,
                                   std::span<const double> state) {
        const CellCoord c(coord.begin(), coord.end());
        auto it = solo_cells.find(c);
        for (size_t a = 0; a < state.size(); ++a) {
          const double other =
              it == solo_cells.end() ? 0.0 : it->second[a];
          if (state[a] != other && shown < 8) {
            ++shown;
            std::fprintf(stderr, "  cell (%lld,%lld) attr %zu: %.17g vs %.17g (rel %g)\n",
                         (long long)c[0], (long long)c[1], a, state[a], other,
                         std::abs(state[a] - other) / std::max(1.0, std::abs(other)));
          }
        }
      });
    }
    EXPECT_TRUE(ViewMatchesRecompute(*multi.set->view(k)));
  }
}

TEST(MultiViewMaintainerTest, SharedPassBitIdenticalToSoloDifferential) {
  ExpectSharedPassMatchesSolo(
      {Shape::L1Ball(2, 1), Shape::LinfBall(2, 1), Shape::LinfBall(2, 2)},
      MaintenanceMethod::kDifferential, 21, 3, 40);
}

TEST(MultiViewMaintainerTest, SharedPassBitIdenticalToSoloReassign) {
  ExpectSharedPassMatchesSolo({Shape::L1Ball(2, 2), Shape::LinfBall(2, 1)},
                              MaintenanceMethod::kReassign, 22, 3, 40);
}

TEST(MultiViewMaintainerTest, SharedPassBitIdenticalForcedDense) {
  ScopedDensificationMode dense(DensificationMode::kForceDense);
  ExpectSharedPassMatchesSolo({Shape::L1Ball(2, 1), Shape::LinfBall(2, 2)},
                              MaintenanceMethod::kDifferential, 23, 2, 50);
}

TEST(MultiViewMaintainerTest, SharedPassBitIdenticalForcedSparse) {
  ScopedDensificationMode sparse(DensificationMode::kForceSparse);
  ExpectSharedPassMatchesSolo({Shape::L1Ball(2, 1), Shape::LinfBall(2, 2)},
                              MaintenanceMethod::kDifferential, 24, 2, 50);
}

TEST(MultiViewMaintainerTest, K1ReproducesViewMaintainerBitForBit) {
  for (MaintenanceMethod method : {MaintenanceMethod::kBaseline,
                                   MaintenanceMethod::kDifferential,
                                   MaintenanceMethod::kReassign}) {
    ASSERT_OK_AND_ASSIGN(
        SetFixture multi,
        MakeSetFixture(4, 120, {Shape::LinfBall(2, 1)}, 31,
                       /*with_sum=*/true, method));
    ASSERT_OK_AND_ASSIGN(auto solo,
                         MakeCountViewFixture(4, 120, Shape::LinfBall(2, 1),
                                              31, /*with_sum=*/true));
    ViewMaintainer solo_maintainer(solo.view.get(), method);
    SparseArray occupied = multi.local_base.Clone();
    for (size_t b = 0; b < 3; ++b) {
      Rng rng(31 + 500 + b);
      SparseArray delta = RandomDisjointDelta(occupied, 35, &rng);
      delta.ForEachCell([&](std::span<const int64_t> coord,
                            std::span<const double> values) {
        AVM_CHECK(occupied.Set(CellCoord(coord.begin(), coord.end()), values)
                      .ok());
      });
      ASSERT_OK_AND_ASSIGN(MaintenanceReport multi_report,
                           multi.maintainer->ApplyBatch(delta));
      ASSERT_OK_AND_ASSIGN(MaintenanceReport solo_report,
                           solo_maintainer.ApplyBatch(delta));
      // Joint planning at K=1 reproduces today's plans bit-for-bit: same
      // pairs, same simulated makespan, same exact byte totals.
      EXPECT_EQ(multi_report.num_pairs, solo_report.num_pairs);
      EXPECT_EQ(multi_report.num_triples, solo_report.num_triples);
      EXPECT_EQ(multi_report.maintenance_seconds,
                solo_report.maintenance_seconds);
      EXPECT_EQ(multi_report.bytes_transferred, solo_report.bytes_transferred);
      EXPECT_EQ(multi_report.bytes_joined, solo_report.bytes_joined);
    }
    ASSERT_OK_AND_ASSIGN(SparseArray multi_states,
                         multi.set->primary()->array().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray solo_states, solo.view->array().Gather());
    EXPECT_TRUE(multi_states.ContentEquals(solo_states, 0.0));
  }
}

TEST(MultiViewMaintainerTest, SharedOperandsChargedOnceNotPerView) {
  // Two views with the SAME shape: the shared pass does exactly the work of
  // one view, so the whole batch's joined bytes must equal the solo batch's
  // — not 2x.
  const Shape shape = Shape::LinfBall(2, 1);
  ASSERT_OK_AND_ASSIGN(SetFixture multi,
                       MakeSetFixture(4, 120, {shape, shape}, 41,
                                      /*with_sum=*/false,
                                      MaintenanceMethod::kDifferential));
  ASSERT_OK_AND_ASSIGN(auto solo, MakeCountViewFixture(4, 120, shape, 41));
  ViewMaintainer solo_maintainer(solo.view.get(),
                                 MaintenanceMethod::kDifferential);
  Rng rng(4100);
  const SparseArray delta = RandomDisjointDelta(multi.local_base, 40, &rng);
  ASSERT_OK_AND_ASSIGN(MaintenanceReport multi_report,
                       multi.maintainer->ApplyBatch(delta));
  ASSERT_OK_AND_ASSIGN(MaintenanceReport solo_report,
                       solo_maintainer.ApplyBatch(delta));
  EXPECT_EQ(multi_report.bytes_joined, solo_report.bytes_joined);
  // Operand transfers are shared too, so total network stays well under the
  // per-view-loop's 2x. It is not exactly 1x: each member's OWN fragments
  // still ship to that member's view chunks — the only per-view network.
  EXPECT_GE(multi_report.bytes_transferred, solo_report.bytes_transferred);
  EXPECT_LT(multi_report.bytes_transferred, 2 * solo_report.bytes_transferred);
  ASSERT_EQ(multi_report.per_view_breakdown().size(), 2u);
  EXPECT_GT(multi_report.per_view_breakdown()[0].fragments_merged, 0u);
  EXPECT_EQ(multi_report.per_view_breakdown()[0].view_name, "view");
  EXPECT_EQ(multi_report.per_view_breakdown()[1].view_name, "view1");
}

TEST(MultiViewMaintainerTest, DeletionsSharedPassMatchesSolo) {
  const std::vector<Shape> shapes = {Shape::L1Ball(2, 1),
                                     Shape::LinfBall(2, 2)};
  ASSERT_OK_AND_ASSIGN(SetFixture multi,
                       MakeSetFixture(3, 120, shapes, 51, /*with_sum=*/true,
                                      MaintenanceMethod::kDifferential));
  // Victims: every third base cell.
  SparseArray victims(multi.local_base.schema());
  size_t i = 0;
  multi.local_base.ForEachCell(
      [&](std::span<const int64_t> coord, std::span<const double> values) {
        if (i++ % 3 == 0) {
          AVM_CHECK(
              victims.Set(CellCoord(coord.begin(), coord.end()), values)
                  .ok());
        }
      });
  ASSERT_OK_AND_ASSIGN(DeletionStats multi_stats,
                       multi.maintainer->ApplyDeletions(victims));
  EXPECT_EQ(multi_stats.deleted_cells, victims.NumCells());

  for (size_t k = 0; k < shapes.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(auto solo, MakeCountViewFixture(3, 120, shapes[k],
                                                         51,
                                                         /*with_sum=*/true));
    ASSERT_OK(ApplyDeletionBatch(solo.view.get(), victims).status());
    ASSERT_OK_AND_ASSIGN(SparseArray multi_states,
                         multi.set->view(k)->array().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray solo_states, solo.view->array().Gather());
    EXPECT_TRUE(multi_states.ContentEquals(solo_states, 0.0)) << "view " << k;
    EXPECT_TRUE(ViewMatchesRecompute(*multi.set->view(k)));
  }
}

TEST(MultiViewMaintainerTest, BatchPublishesOneEpochForAllMembers) {
  ASSERT_OK_AND_ASSIGN(
      SetFixture fixture,
      MakeSetFixture(3, 100, {Shape::L1Ball(2, 1), Shape::LinfBall(2, 1)}, 61,
                     /*with_sum=*/false, MaintenanceMethod::kDifferential));
  EpochManager epochs;
  fixture.maintainer->AttachEpochManager(&epochs);
  Rng rng(6100);
  const SparseArray delta = RandomDisjointDelta(fixture.local_base, 30, &rng);
  ASSERT_OK_AND_ASSIGN(MaintenanceReport report,
                       fixture.maintainer->ApplyBatch(delta));
  EXPECT_EQ(report.published_epoch, 1u);
  const ReadSnapshot snapshot = epochs.OpenSnapshot();
  ASSERT_TRUE(snapshot.valid());
  // The one epoch carries every member: a reader can never pair view A at
  // epoch n+1 with view B at epoch n.
  EXPECT_EQ(snapshot.epoch().views().size(), 2u);
  EXPECT_EQ(snapshot.epoch_id(), 1u);
}

TEST(MultiViewMaintainerTest, TwoArraySetBitIdenticalToOneMemberSets) {
  const std::vector<Shape> shapes = {Shape::L1Ball(2, 1),
                                     Shape::LinfBall(2, 2)};
  ASSERT_OK_AND_ASSIGN(TwoArrayUniverse multi,
                       MakeTwoArrayUniverse(shapes, 91));
  ViewSet set;
  for (const auto& view : multi.views) ASSERT_OK(set.AddView(view.get()));
  ViewMaintainer maintainer(&set, MaintenanceMethod::kReassign);

  // Inserts on both sides; the second batch also overwrites existing cells
  // of both bases, so every member runs its own modification pass.
  SparseArray a_now = multi.a_local.Clone();
  SparseArray b_now = multi.b_local.Clone();
  std::vector<std::pair<SparseArray, SparseArray>> batches;
  Rng rng(9100);
  for (size_t b = 0; b < 2; ++b) {
    SparseArray a_delta = RandomDisjointDelta(a_now, 25, &rng);
    SparseArray b_delta = RandomDisjointDelta(b_now, 25, &rng);
    if (b == 1) {
      size_t i = 0;
      for (SparseArray* side : {&a_now, &b_now}) {
        SparseArray* delta = side == &a_now ? &a_delta : &b_delta;
        side->ForEachCell([&](std::span<const int64_t> coord,
                              std::span<const double> values) {
          if (i++ % 7 != 0) return;
          AVM_CHECK(delta
                        ->Set(CellCoord(coord.begin(), coord.end()),
                              std::vector<double>{values[0] + 1.5})
                        .ok());
        });
      }
    }
    for (const auto& [side, delta] :
         {std::pair{&a_now, &a_delta}, std::pair{&b_now, &b_delta}}) {
      delta->ForEachCell([&](std::span<const int64_t> coord,
                             std::span<const double> values) {
        AVM_CHECK(side->Set(CellCoord(coord.begin(), coord.end()), values)
                      .ok());
      });
    }
    batches.emplace_back(std::move(a_delta), std::move(b_delta));
  }
  for (const auto& [a_delta, b_delta] : batches) {
    ASSERT_OK_AND_ASSIGN(MaintenanceReport report,
                         maintainer.ApplyBatch(a_delta, &b_delta));
    EXPECT_EQ(report.per_view_breakdown().size(), 2u);
  }

  for (size_t k = 0; k < shapes.size(); ++k) {
    ASSERT_OK_AND_ASSIGN(TwoArrayUniverse solo,
                         MakeTwoArrayUniverse({shapes[k]}, 91));
    ViewMaintainer solo_maintainer(solo.views[0].get(),
                                   MaintenanceMethod::kReassign);
    for (const auto& [a_delta, b_delta] : batches) {
      ASSERT_OK(solo_maintainer.ApplyBatch(a_delta, &b_delta).status());
    }
    ASSERT_OK_AND_ASSIGN(SparseArray multi_states,
                         multi.views[k]->array().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray solo_states,
                         solo.views[0]->array().Gather());
    EXPECT_TRUE(multi_states.ContentEquals(solo_states, 0.0)) << "view " << k;
    EXPECT_TRUE(ViewMatchesRecompute(*multi.views[k]));
  }
  // The identity-self-join rule lives in deletions now.
  EXPECT_TRUE(maintainer.ApplyDeletions(batches[0].first)
                  .status()
                  .IsUnimplemented());
}

TEST(MultiViewMaintainerTest, MemberAddedAfterABatchIsMaintained) {
  ASSERT_OK_AND_ASSIGN(
      SetFixture fixture,
      MakeSetFixture(3, 120, {Shape::L1Ball(2, 1)}, 73, /*with_sum=*/true,
                     MaintenanceMethod::kDifferential));
  SparseArray occupied = fixture.local_base.Clone();
  auto next_batch = [&](uint64_t seed) {
    Rng rng(seed);
    SparseArray delta = RandomDisjointDelta(occupied, 30, &rng);
    delta.ForEachCell(
        [&](std::span<const int64_t> coord, std::span<const double> values) {
          AVM_CHECK(
              occupied.Set(CellCoord(coord.begin(), coord.end()), values)
                  .ok());
        });
    return delta;
  };
  ASSERT_OK(fixture.maintainer->ApplyBatch(next_batch(7300)).status());
  // A wider member joins the set after its first batch (as a session's
  // later CREATE VIEW does): the next batch must enumerate pairs under the
  // grown union, not under footprints cached for the old one.
  ViewDefinition def;
  def.view_name = "wide";
  def.left_array = "base";
  def.right_array = "base";
  def.mapping = DimMapping::Identity(2);
  def.shape = Shape::LinfBall(2, 3);
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
  ASSERT_OK_AND_ASSIGN(
      MaterializedView wide,
      CreateMaterializedView(std::move(def), MakeRoundRobinPlacement(),
                             fixture.universe.catalog.get(),
                             fixture.universe.cluster.get()));
  ASSERT_OK(fixture.set->AddView(&wide));
  ASSERT_OK(fixture.maintainer->ApplyBatch(next_batch(7301)).status());
  EXPECT_TRUE(ViewMatchesRecompute(*fixture.set->view(0)));
  EXPECT_TRUE(ViewMatchesRecompute(wide));
}

TEST(MultiViewMaintainerTest, PrefetchAbsorbsRepeatLookups) {
  EnableTelemetry();
  ASSERT_OK_AND_ASSIGN(
      SetFixture fixture,
      MakeSetFixture(3, 100, {Shape::L1Ball(2, 1), Shape::LinfBall(2, 1)}, 71,
                     /*with_sum=*/true, MaintenanceMethod::kDifferential));
  Rng rng(7100);
  const SparseArray delta = RandomDisjointDelta(fixture.local_base, 40, &rng);
  ASSERT_OK_AND_ASSIGN(MaintenanceReport report,
                       fixture.maintainer->ApplyBatch(delta));
  DisableTelemetry();
  ASSERT_TRUE(report.telemetry_collected);
  // The union compiles once; the delta-array and base-array operands share
  // one grid geometry, so the pass-scoped memo must absorb at least one
  // repeat lookup that previously hit the global cache.
  EXPECT_GT(report.shape_prefetch_dedup, 0u);
}

}  // namespace
}  // namespace avm
