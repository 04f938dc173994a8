#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "tests/test_util.h"

namespace avm {
namespace {

/// A tiny scale so the full pipeline (generate, load, materialize, maintain)
/// runs in well under a second per case.
ExperimentScale TinyScale() {
  ExperimentScale scale;
  scale.num_workers = 4;
  scale.num_batches = 3;
  scale.ptf.time_range = 1536;
  scale.ptf.base_cells = 1500;
  scale.ptf.batch_cells_min = 150;
  scale.ptf.batch_cells_max = 300;
  scale.geo.seed_pois = 500;
  scale.geo.batch_frac = 0.02;
  return scale;
}

TEST(HarnessTest, Names) {
  EXPECT_EQ(DatasetKindName(DatasetKind::kPtf5), "PTF-5");
  EXPECT_EQ(DatasetKindName(DatasetKind::kPtf25), "PTF-25");
  EXPECT_EQ(DatasetKindName(DatasetKind::kGeo), "GEO");
  EXPECT_EQ(BatchRegimeName(BatchRegime::kCorrelated), "correlated");
}

TEST(HarnessTest, PreparesGeoExperiment) {
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment experiment,
      PrepareExperiment(DatasetKind::kGeo, BatchRegime::kRandom, TinyScale()));
  EXPECT_EQ(experiment.batches.size(), 3u);
  EXPECT_GT(experiment.view->array().NumCells(), 0u);
  EXPECT_DOUBLE_EQ(experiment.cluster->MakespanSeconds(), 0.0);  // reset
}

TEST(HarnessTest, PreparesPtf5Experiment) {
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment experiment,
      PrepareExperiment(DatasetKind::kPtf5, BatchRegime::kReal, TinyScale()));
  EXPECT_EQ(experiment.batches.size(), 3u);
  EXPECT_EQ(experiment.view->left_base().schema().num_dims(), 3u);
  // PTF-5's shape is the backward-looking space-time product.
  EXPECT_FALSE(experiment.view->definition().shape.IsSymmetric());
}

TEST(HarnessTest, Ptf25ShapeIsTimeSymmetric) {
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment experiment,
      PrepareExperiment(DatasetKind::kPtf25, BatchRegime::kReal, TinyScale()));
  EXPECT_TRUE(experiment.view->definition().shape.IsSymmetric());
}

TEST(HarnessTest, RunsSeriesAndMaintainsCorrectness) {
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment experiment,
      PrepareExperiment(DatasetKind::kGeo, BatchRegime::kRandom, TinyScale()));
  ASSERT_OK_AND_ASSIGN(
      BatchSeries series,
      RunMaintenanceSeries(&experiment, MaintenanceMethod::kReassign,
                           PlannerOptions()));
  EXPECT_EQ(series.reports.size(), 3u);
  EXPECT_GT(series.TotalMaintenanceSeconds(), 0.0);
  EXPECT_GT(series.MeanOptimizationSeconds(), 0.0);
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*experiment.view));
}

TEST(HarnessTest, SameSeedGivesIdenticalBatchesAcrossMethods) {
  const ExperimentScale scale = TinyScale();
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment e1,
      PrepareExperiment(DatasetKind::kGeo, BatchRegime::kRandom, scale));
  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment e2,
      PrepareExperiment(DatasetKind::kGeo, BatchRegime::kRandom, scale));
  ASSERT_EQ(e1.batches.size(), e2.batches.size());
  for (size_t i = 0; i < e1.batches.size(); ++i) {
    EXPECT_TRUE(e1.batches[i].ContentEquals(e2.batches[i]));
  }
}

TEST(HarnessTest, RunAllMethodsProducesThreeSeries) {
  ExperimentScale scale = TinyScale();
  scale.num_batches = 2;
  ASSERT_OK_AND_ASSIGN(
      auto all,
      RunAllMethods(DatasetKind::kGeo, BatchRegime::kCorrelated, scale,
                    PlannerOptions()));
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].method, MaintenanceMethod::kBaseline);
  EXPECT_EQ(all[1].method, MaintenanceMethod::kDifferential);
  EXPECT_EQ(all[2].method, MaintenanceMethod::kReassign);
  for (const auto& series : all) {
    EXPECT_EQ(series.reports.size(), 2u);
  }
}

TEST(HarnessTest, PtfMaintenanceStaysCorrectAcrossRegimes) {
  for (BatchRegime regime : {BatchRegime::kReal, BatchRegime::kCorrelated,
                             BatchRegime::kPeriodic}) {
    ExperimentScale scale = TinyScale();
    scale.num_batches = 2;
    ASSERT_OK_AND_ASSIGN(
        PreparedExperiment experiment,
        PrepareExperiment(DatasetKind::kPtf5, regime, scale));
    ASSERT_OK_AND_ASSIGN(
        BatchSeries series,
        RunMaintenanceSeries(&experiment, MaintenanceMethod::kReassign,
                             PlannerOptions()));
    EXPECT_EQ(series.reports.size(), 2u);
    EXPECT_TRUE(testing_util::ViewMatchesRecompute(*experiment.view))
        << BatchRegimeName(regime);
  }
}

// Plan fingerprints: every (dataset, method) pair at TinyScale must plan its
// first two batches exactly as the table says. The table was generated once
// and is never regenerated to make a refactor pass: a differing digest means
// the refactor changed a transfer, a join placement, a view or array move,
// or the simulated makespan of a figure workload.
struct PlanDigestCase {
  DatasetKind kind;
  BatchRegime regime;
  MaintenanceMethod method;
  uint64_t digests[2];
};

constexpr PlanDigestCase kPlanDigestTable[] = {
    {DatasetKind::kPtf5, BatchRegime::kReal, MaintenanceMethod::kBaseline,
     {0x8c5766d2bf2fceefull, 0x3d3d0433df75fbfdull}},
    {DatasetKind::kPtf5, BatchRegime::kReal, MaintenanceMethod::kDifferential,
     {0x8de09569b3f96f9aull, 0x0374f43a9910d83dull}},
    {DatasetKind::kPtf5, BatchRegime::kReal, MaintenanceMethod::kReassign,
     {0x4ae22ccb831271f2ull, 0xadb7554ed51e2ed4ull}},
    {DatasetKind::kPtf25, BatchRegime::kReal, MaintenanceMethod::kBaseline,
     {0x31e36088a936d512ull, 0xb92e9824327b28a9ull}},
    {DatasetKind::kPtf25, BatchRegime::kReal, MaintenanceMethod::kDifferential,
     {0xc34e4d23c01edb03ull, 0x26a3723981a62dbeull}},
    {DatasetKind::kPtf25, BatchRegime::kReal, MaintenanceMethod::kReassign,
     {0xbd28db3e54e66ef8ull, 0xfb44743ccd58003full}},
    {DatasetKind::kGeo, BatchRegime::kRandom, MaintenanceMethod::kBaseline,
     {0x2bdda0b4bd80ee00ull, 0x0a30c850a7605a0cull}},
    {DatasetKind::kGeo, BatchRegime::kRandom, MaintenanceMethod::kDifferential,
     {0x3f692a232c845cf9ull, 0x6a0e37f8db6392c6ull}},
    {DatasetKind::kGeo, BatchRegime::kRandom, MaintenanceMethod::kReassign,
     {0xdaae6c7ee9ada122ull, 0x7659ac8a03e38984ull}},
};

void PrintTo(const PlanDigestCase& c, std::ostream* os) {
  *os << DatasetKindName(c.kind) << "/" << MaintenanceMethodName(c.method);
}

class PlanDigestTest : public ::testing::TestWithParam<PlanDigestCase> {};

TEST_P(PlanDigestTest, MatchesTable) {
  const PlanDigestCase& c = GetParam();
  ExperimentScale scale = TinyScale();
  scale.num_batches = 2;
  ASSERT_OK_AND_ASSIGN(PreparedExperiment experiment,
                       PrepareExperiment(c.kind, c.regime, scale));
  ASSERT_OK_AND_ASSIGN(
      BatchSeries series,
      RunMaintenanceSeries(&experiment, c.method, PlannerOptions()));
  ASSERT_EQ(series.reports.size(), 2u);
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(series.reports[b].plan_digest, c.digests[b]) << "batch " << b;
  }
}

std::string PlanDigestCaseName(
    const ::testing::TestParamInfo<PlanDigestCase>& info) {
  std::string name = std::string(DatasetKindName(info.param.kind)) + "_" +
                     std::string(MaintenanceMethodName(info.param.method));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(FigureWorkloads, PlanDigestTest,
                         ::testing::ValuesIn(kPlanDigestTable),
                         PlanDigestCaseName);

}  // namespace
}  // namespace avm
