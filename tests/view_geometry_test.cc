// Maintenance when the view's geometry differs from the base array's — the
// paper: "the base array(s) and the materialized view are not required to
// have identical chunking and partitioning", and the view may have lower
// dimensionality (group-by over a dimension subset).

#include <gtest/gtest.h>

#include "maintenance/maintainer.h"
#include "tests/test_util.h"

namespace avm {
namespace {

using testing_util::Make2DSchema;
using testing_util::RandomDisjointDelta;
using testing_util::ViewMatchesRecompute;

struct GeometryCase {
  std::string name;
  std::vector<size_t> group_dims;          // empty = all
  std::vector<int64_t> view_chunk_extents; // empty = inherit
  MaintenanceMethod method;
};

// Without a printer gtest dumps the struct's bytes into the listed test
// name, heap addresses included, so the name would change from build to
// build.
void PrintTo(const GeometryCase& c, std::ostream* os) { *os << c.name; }

class ViewGeometryTest : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ViewGeometryTest, MaintenanceStaysExact) {
  const GeometryCase& param = GetParam();
  Catalog catalog;
  Cluster cluster(4);
  const ArraySchema schema = Make2DSchema("base", 40, 8, 24, 6);
  SparseArray local(schema);
  Rng rng(1000);
  testing_util::FillRandom(&local, 120, &rng);
  ASSERT_OK_AND_ASSIGN(
      DistributedArray base,
      DistributedArray::Create(schema, MakeRangePlacement(0), &catalog,
                               &cluster));
  ASSERT_OK(base.Ingest(local));

  ViewDefinition def;
  def.view_name = "V";
  def.left_array = "base";
  def.right_array = "base";
  def.mapping = DimMapping::Identity(2);
  def.shape = Shape::L1Ball(2, 1);
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"},
                    {AggregateFunction::kSum, 0, "s"}};
  def.group_dims = param.group_dims;
  def.view_chunk_extents = param.view_chunk_extents;
  ASSERT_OK_AND_ASSIGN(
      MaterializedView view,
      CreateMaterializedView(std::move(def), MakeHashPlacement(), &catalog,
                             &cluster));
  ASSERT_TRUE(ViewMatchesRecompute(view)) << "materialization";

  ViewMaintainer maintainer(&view, param.method);
  for (int b = 0; b < 3; ++b) {
    ASSERT_OK_AND_ASSIGN(SparseArray base_now, view.left_base().Gather());
    SparseArray delta = RandomDisjointDelta(base_now, 40, &rng);
    ASSERT_OK(maintainer.ApplyBatch(delta).status());
    ASSERT_TRUE(ViewMatchesRecompute(view))
        << param.name << " diverged at batch " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ViewGeometryTest,
    ::testing::Values(
        // Finer view chunks than the base (8x6 base -> 4x3 view chunks).
        GeometryCase{"finer_chunks", {}, {4, 3},
                     MaintenanceMethod::kReassign},
        // Coarser view chunks (one view chunk spans several base chunks).
        GeometryCase{"coarser_chunks", {}, {16, 12},
                     MaintenanceMethod::kReassign},
        // Misaligned extents (neither divides the other).
        GeometryCase{"misaligned_chunks", {}, {5, 7},
                     MaintenanceMethod::kDifferential},
        GeometryCase{"misaligned_baseline", {}, {5, 7},
                     MaintenanceMethod::kBaseline},
        // A 1-D view: group by x only (dimensionality reduction).
        GeometryCase{"project_to_x", {0}, {}, MaintenanceMethod::kReassign},
        // Group by y only, with its own chunking.
        GeometryCase{"project_to_y_rechunked", {1}, {5},
                     MaintenanceMethod::kDifferential},
        // Reversed dimension order in the group-by.
        GeometryCase{"swapped_dims", {1, 0}, {},
                     MaintenanceMethod::kReassign}),
    [](const ::testing::TestParamInfo<GeometryCase>& info) {
      return info.param.name;
    });

TEST(ViewGeometryTest, ProjectedViewCountsAggregateAcrossCollapsedDim) {
  // Two base cells sharing x must fold into one 1-D view cell.
  Catalog catalog;
  Cluster cluster(2);
  const ArraySchema schema = Make2DSchema("base", 40, 8, 24, 6);
  SparseArray local(schema);
  ASSERT_OK(local.Set({10, 5}, std::vector<double>{2.0}));
  ASSERT_OK(local.Set({10, 20}, std::vector<double>{3.0}));
  ASSERT_OK_AND_ASSIGN(
      DistributedArray base,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(), &catalog,
                               &cluster));
  ASSERT_OK(base.Ingest(local));
  ViewDefinition def;
  def.view_name = "V";
  def.left_array = "base";
  def.right_array = "base";
  def.mapping = DimMapping::Identity(2);
  def.shape = Shape::L1Ball(2, 0);  // self only
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
  def.group_dims = {0};
  ASSERT_OK_AND_ASSIGN(
      MaterializedView view,
      CreateMaterializedView(std::move(def), MakeRoundRobinPlacement(),
                             &catalog, &cluster));
  ASSERT_OK_AND_ASSIGN(SparseArray states, view.array().Gather());
  EXPECT_EQ(states.NumCells(), 1u);
  EXPECT_EQ((*states.Get({10}))[0], 2.0);  // both cells' self-pairs
}

}  // namespace
}  // namespace avm
