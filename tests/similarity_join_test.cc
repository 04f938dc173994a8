#include "join/similarity_join.h"

#include <gtest/gtest.h>

#include "join/reference.h"
#include "tests/test_util.h"
#include "view/view_definition.h"

namespace avm {
namespace {

using testing_util::Make2DSchema;

struct JoinCase {
  std::string name;
  int64_t radius;
  bool linf;
  std::string placement;
  size_t cells;
};

// Without a printer gtest dumps the struct's bytes into the listed test
// name, heap addresses included, so the name would change from build to
// build.
void PrintTo(const JoinCase& c, std::ostream* os) { *os << c.name; }

class DistributedJoinTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(DistributedJoinTest, MatchesReferenceEvaluation) {
  const JoinCase& param = GetParam();
  Catalog catalog;
  Cluster cluster(4);
  const ArraySchema schema = Make2DSchema("A", 32, 8, 32, 8);
  SparseArray local(schema);
  Rng rng(31);
  testing_util::FillRandom(&local, param.cells, &rng);

  auto make_placement = [&]() -> std::unique_ptr<ChunkPlacement> {
    if (param.placement == "hash") return MakeHashPlacement();
    if (param.placement == "range") return MakeRangePlacement(0);
    return MakeRoundRobinPlacement();
  };
  ASSERT_OK_AND_ASSIGN(
      DistributedArray base,
      DistributedArray::Create(schema, make_placement(), &catalog, &cluster));
  ASSERT_OK(base.Ingest(local));

  SimilarityJoinSpec spec;
  spec.mapping = DimMapping::Identity(2);
  spec.shape = param.linf ? Shape::LinfBall(2, param.radius)
                          : Shape::L1Ball(2, param.radius);
  ASSERT_OK_AND_ASSIGN(
      spec.layout,
      AggregateLayout::Create({{AggregateFunction::kCount, 0, "cnt"},
                               {AggregateFunction::kSum, 0, "s"}},
                              1));
  spec.group_dims = {0, 1};

  ASSERT_OK_AND_ASSIGN(
      ArraySchema result_schema,
      ArraySchema::Create("R", schema.dims(), spec.layout.StateAttributes()));
  ASSERT_OK_AND_ASSIGN(
      DistributedArray result,
      DistributedArray::Create(result_schema, make_placement(), &catalog,
                               &cluster));
  ASSERT_OK_AND_ASSIGN(
      JoinExecutionStats stats,
      ExecuteDistributedJoinAggregate(base, base, spec, &result));
  EXPECT_GT(stats.chunk_pairs, 0u);

  ASSERT_OK_AND_ASSIGN(SparseArray reference,
                       ReferenceJoinAggregate(local, local, spec,
                                              result_schema));
  ASSERT_OK_AND_ASSIGN(SparseArray gathered, result.Gather());
  EXPECT_TRUE(gathered.ContentEquals(reference, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedJoinTest,
    ::testing::Values(JoinCase{"l1_rr", 1, false, "round-robin", 120},
                      JoinCase{"linf_rr", 1, true, "round-robin", 120},
                      JoinCase{"linf2_hash", 2, true, "hash", 100},
                      JoinCase{"l1_range", 2, false, "range", 100},
                      JoinCase{"dense_linf", 1, true, "hash", 400},
                      JoinCase{"sparse", 3, true, "round-robin", 15}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

TEST(DistributedJoinTest, ChargesClocks) {
  Catalog catalog;
  Cluster cluster(2);
  const ArraySchema schema = Make2DSchema("A", 32, 8, 32, 8);
  SparseArray local(schema);
  Rng rng(33);
  testing_util::FillRandom(&local, 200, &rng);
  ASSERT_OK_AND_ASSIGN(
      DistributedArray base,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(), &catalog,
                               &cluster));
  ASSERT_OK(base.Ingest(local));

  SimilarityJoinSpec spec;
  spec.mapping = DimMapping::Identity(2);
  spec.shape = Shape::LinfBall(2, 1);
  ASSERT_OK_AND_ASSIGN(
      spec.layout,
      AggregateLayout::Create({{AggregateFunction::kCount, 0, "cnt"}}, 1));
  spec.group_dims = {0, 1};
  ASSERT_OK_AND_ASSIGN(
      ArraySchema result_schema,
      ArraySchema::Create("R", schema.dims(), spec.layout.StateAttributes()));
  ASSERT_OK_AND_ASSIGN(
      DistributedArray result,
      DistributedArray::Create(result_schema, MakeRoundRobinPlacement(),
                               &catalog, &cluster));
  cluster.ResetClocks();
  ASSERT_OK(
      ExecuteDistributedJoinAggregate(base, base, spec, &result).status());
  EXPECT_GT(cluster.MakespanSeconds(), 0.0);
}

TEST(DistributedJoinTest, RejectsShapeDimMismatch) {
  Catalog catalog;
  Cluster cluster(2);
  const ArraySchema schema = Make2DSchema("A");
  ASSERT_OK_AND_ASSIGN(
      DistributedArray base,
      DistributedArray::Create(schema, MakeRoundRobinPlacement(), &catalog,
                               &cluster));
  SimilarityJoinSpec spec;
  spec.mapping = DimMapping::Identity(2);
  spec.shape = Shape::L1Ball(3, 1);
  ASSERT_OK_AND_ASSIGN(
      spec.layout,
      AggregateLayout::Create({{AggregateFunction::kCount, 0, "cnt"}}, 1));
  spec.group_dims = {0, 1};
  ASSERT_OK_AND_ASSIGN(
      ArraySchema result_schema,
      ArraySchema::Create("R", schema.dims(), spec.layout.StateAttributes()));
  ASSERT_OK_AND_ASSIGN(
      DistributedArray result,
      DistributedArray::Create(result_schema, MakeRoundRobinPlacement(),
                               &catalog, &cluster));
  EXPECT_TRUE(ExecuteDistributedJoinAggregate(base, base, spec, &result)
                  .status()
                  .IsInvalidArgument());
}

TEST(ReferenceJoinTest, TwoArrayJoin) {
  const ArraySchema schema = Make2DSchema("A", 16, 4, 16, 4);
  SparseArray left(schema);
  SparseArray right(schema);
  ASSERT_OK(left.Set({5, 5}, std::vector<double>{1.0}));
  ASSERT_OK(right.Set({5, 6}, std::vector<double>{10.0}));
  ASSERT_OK(right.Set({6, 5}, std::vector<double>{20.0}));
  ASSERT_OK(right.Set({9, 9}, std::vector<double>{30.0}));

  SimilarityJoinSpec spec;
  spec.mapping = DimMapping::Identity(2);
  spec.shape = Shape::L1Ball(2, 1);
  ASSERT_OK_AND_ASSIGN(
      spec.layout,
      AggregateLayout::Create({{AggregateFunction::kSum, 0, "s"}}, 1));
  spec.group_dims = {0, 1};
  ASSERT_OK_AND_ASSIGN(
      ArraySchema result_schema,
      ArraySchema::Create("R", schema.dims(), spec.layout.StateAttributes()));
  ASSERT_OK_AND_ASSIGN(
      SparseArray result,
      ReferenceJoinAggregate(left, right, spec, result_schema));
  EXPECT_EQ(result.NumCells(), 1u);
  EXPECT_EQ((*result.Get({5, 5}))[0], 30.0);  // 10 + 20, not the far cell
}

}  // namespace
}  // namespace avm
