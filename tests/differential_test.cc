// Differential-oracle property test for the parallel maintenance executor:
// the same randomized workload — insert, modification, and deletion batches —
// is maintained incrementally on a serial (1-thread) cluster and on a
// 4-thread cluster, and both must agree bit-for-bit with each other and
// cell-for-cell with a from-scratch recomputation of the view. This is the
// harness the incremental-view-maintenance literature demands: an
// incremental plan is only trustworthy when checked against full
// recomputation, and a concurrent executor only when checked against the
// serial schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "array/chunk.h"
#include "common/check.h"
#include "maintenance/deletions.h"
#include "maintenance/maintainer.h"
#include "tests/test_util.h"
#include "view/view_set.h"

namespace avm {
namespace {

using testing_util::MakeCountViewFixture;
using testing_util::RandomDisjointDelta;
using testing_util::ViewFixture;
using testing_util::ViewMatchesRecompute;

/// One scripted maintenance step: an update batch (inserts + overwrites of
/// existing cells) and an optional deletion batch applied after it.
struct Step {
  SparseArray updates;
  SparseArray deletions;
  bool has_deletions = false;

  explicit Step(const ArraySchema& schema)
      : updates(schema), deletions(schema) {}
};

/// Collects every coordinate of `array`, shuffled by `rng`.
std::vector<CellCoord> ShuffledCoords(const SparseArray& array, Rng* rng) {
  std::vector<CellCoord> coords;
  coords.reserve(array.NumCells());
  array.ForEachCell(
      [&](std::span<const int64_t> coord, std::span<const double>) {
        coords.emplace_back(coord.begin(), coord.end());
      });
  rng->Shuffle(coords);
  return coords;
}

/// Scripts `num_steps` randomized steps against an evolving mirror of the
/// base content. Every step has inserts and modifications; every second
/// step also deletes existing cells. The script is generated once and
/// replayed verbatim on every lane, so all lanes see identical input.
std::vector<Step> MakeWorkload(const SparseArray& initial_base, int num_steps,
                               uint64_t seed) {
  std::vector<Step> steps;
  SparseArray mirror = initial_base.Clone();
  Rng rng(seed);
  const size_t num_attrs = mirror.schema().num_attrs();
  std::vector<double> values(num_attrs);
  for (int s = 0; s < num_steps; ++s) {
    Step step(mirror.schema());
    // Inserts: fresh coordinates.
    SparseArray inserts = RandomDisjointDelta(mirror, 24, &rng);
    inserts.ForEachCell(
        [&](std::span<const int64_t> coord, std::span<const double> vals) {
          CellCoord c(coord.begin(), coord.end());
          AVM_CHECK(step.updates.Set(c, vals).ok());
          AVM_CHECK(mirror.Set(c, vals).ok());
        });
    // Modifications: overwrite existing cells with new values (exercises the
    // signed value-correction path).
    std::vector<CellCoord> existing = ShuffledCoords(mirror, &rng);
    const size_t num_mods = std::min<size_t>(8, existing.size());
    for (size_t i = 0; i < num_mods; ++i) {
      if (step.updates.Has(existing[i])) continue;  // freshly inserted
      for (auto& v : values) v = rng.UniformDouble() * 100.0;
      AVM_CHECK(step.updates.Set(existing[i], values).ok());
      AVM_CHECK(mirror.Set(existing[i], values).ok());
    }
    // Deletions on alternating steps: drop existing cells (including,
    // sometimes, cells this very step touched — applied after the batch).
    if (s % 2 == 1) {
      step.has_deletions = true;
      std::vector<CellCoord> victims = ShuffledCoords(mirror, &rng);
      const size_t num_dels = std::min<size_t>(12, victims.size());
      for (size_t i = 0; i < num_dels; ++i) {
        auto vals = mirror.Get(victims[i]);
        AVM_CHECK(vals.ok());
        AVM_CHECK(step.deletions
                      .Set(victims[i],
                           std::span<const double>(vals.value(), num_attrs))
                      .ok());
      }
      step.deletions.ForEachCell(
          [&](std::span<const int64_t> coord, std::span<const double>) {
            mirror.Erase(CellCoord(coord.begin(), coord.end()));
          });
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

/// One maintained replica of the workload at a fixed host thread count.
struct Lane {
  ViewFixture fixture;
  std::unique_ptr<ViewMaintainer> maintainer;
};

Result<Lane> MakeLane(MaintenanceMethod method, uint64_t seed,
                      int num_threads) {
  Lane lane;
  AVM_ASSIGN_OR_RETURN(
      lane.fixture,
      MakeCountViewFixture(4, 120, Shape::L1Ball(2, 1), seed,
                           /*with_sum=*/true, "range", num_threads));
  lane.maintainer = std::make_unique<ViewMaintainer>(
      lane.fixture.view.get(), method);
  return lane;
}

class DifferentialOracleTest
    : public ::testing::TestWithParam<MaintenanceMethod> {};

TEST_P(DifferentialOracleTest, SerialParallelAndRecomputeAgree) {
  const MaintenanceMethod method = GetParam();
  const uint64_t seed = 4200 + static_cast<uint64_t>(method);
  ASSERT_OK_AND_ASSIGN(Lane serial, MakeLane(method, seed, /*threads=*/1));
  ASSERT_OK_AND_ASSIGN(Lane parallel, MakeLane(method, seed, /*threads=*/4));
  // Same seed => identical initial data in both lanes.
  ASSERT_TRUE(serial.fixture.local_base.ContentEquals(
      parallel.fixture.local_base));

  const std::vector<Step> steps =
      MakeWorkload(serial.fixture.local_base, /*num_steps=*/5, seed + 1);

  for (size_t s = 0; s < steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    ASSERT_OK_AND_ASSIGN(MaintenanceReport serial_report,
                         serial.maintainer->ApplyBatch(steps[s].updates));
    ASSERT_OK_AND_ASSIGN(MaintenanceReport parallel_report,
                         parallel.maintainer->ApplyBatch(steps[s].updates));
    // Simulated quantities are thread-invariant, bit for bit.
    EXPECT_EQ(serial_report.maintenance_seconds,
              parallel_report.maintenance_seconds);
    EXPECT_EQ(serial_report.exec.joins_executed,
              parallel_report.exec.joins_executed);
    EXPECT_EQ(serial_report.exec.fragments_merged,
              parallel_report.exec.fragments_merged);
    EXPECT_EQ(serial_report.exec.delta_chunks_merged,
              parallel_report.exec.delta_chunks_merged);
    EXPECT_EQ(serial_report.modified_cells, parallel_report.modified_cells);

    if (steps[s].has_deletions) {
      ASSERT_OK_AND_ASSIGN(
          DeletionStats serial_del,
          ApplyDeletionBatch(serial.fixture.view.get(), steps[s].deletions));
      ASSERT_OK_AND_ASSIGN(DeletionStats parallel_del,
                           ApplyDeletionBatch(parallel.fixture.view.get(),
                                              steps[s].deletions));
      EXPECT_EQ(serial_del.deleted_cells, parallel_del.deleted_cells);
      EXPECT_EQ(serial_del.view_cells_removed, parallel_del.view_cells_removed);
      EXPECT_EQ(serial_del.maintenance_seconds,
                parallel_del.maintenance_seconds);
    }

    // The two lanes must hold byte-identical state: base arrays and views.
    ASSERT_OK_AND_ASSIGN(SparseArray serial_base,
                         serial.fixture.view->left_base().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray parallel_base,
                         parallel.fixture.view->left_base().Gather());
    EXPECT_TRUE(serial_base.ContentEquals(parallel_base, /*tolerance=*/0.0));
    ASSERT_OK_AND_ASSIGN(SparseArray serial_view,
                         serial.fixture.view->array().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray parallel_view,
                         parallel.fixture.view->array().Gather());
    EXPECT_TRUE(serial_view.ContentEquals(parallel_view, /*tolerance=*/0.0));

    // And both must equal the from-scratch oracle.
    EXPECT_TRUE(ViewMatchesRecompute(*serial.fixture.view));
    EXPECT_TRUE(ViewMatchesRecompute(*parallel.fixture.view));
  }

  // Final sanity: the simulated clocks themselves agree across lanes.
  for (NodeId n = 0; n < serial.fixture.cluster->num_workers(); ++n) {
    EXPECT_EQ(serial.fixture.cluster->clock(n).ntwk_seconds,
              parallel.fixture.cluster->clock(n).ntwk_seconds);
    EXPECT_EQ(serial.fixture.cluster->clock(n).cpu_seconds,
              parallel.fixture.cluster->clock(n).cpu_seconds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, DifferentialOracleTest,
    ::testing::Values(MaintenanceMethod::kBaseline,
                      MaintenanceMethod::kDifferential,
                      MaintenanceMethod::kReassign),
    [](const ::testing::TestParamInfo<MaintenanceMethod>& info) {
      return std::string(MaintenanceMethodName(info.param));
    });

// ---------------------------------------------------------------------------
// View-set extension of the oracle: maintaining K views through ONE shared
// delta pass must be bit-identical to maintaining each view alone — through
// the same scripted inserts, modifications, and deletions, and under every
// chunk representation (auto, forced-dense, forced-sparse).
// ---------------------------------------------------------------------------

struct SetOracleParam {
  MaintenanceMethod method;
  DensificationMode rep;
};

const char* RepName(DensificationMode rep) {
  switch (rep) {
    case DensificationMode::kAuto: return "Auto";
    case DensificationMode::kForceSparse: return "ForceSparse";
    case DensificationMode::kForceDense: return "ForceDense";
  }
  return "Unknown";
}

class SetDifferentialOracleTest
    : public ::testing::TestWithParam<SetOracleParam> {};

TEST_P(SetDifferentialOracleTest, SharedPassAgreesWithSoloLanes) {
  const MaintenanceMethod method = GetParam().method;
  const ScopedDensificationMode mode(GetParam().rep);
  const uint64_t seed = 7100 + static_cast<uint64_t>(method) * 10 +
                        static_cast<uint64_t>(GetParam().rep);
  const std::vector<Shape> shapes = {Shape::L1Ball(2, 1),
                                     Shape::LinfBall(2, 1),
                                     Shape::LinfBall(2, 2)};

  // The shared-pass lane: one base, K views, one maintainer.
  ASSERT_OK_AND_ASSIGN(
      testing_util::ViewSetFixture set_fixture,
      testing_util::MakeViewSetFixture(4, 120, shapes, seed,
                                       /*with_sum=*/true, "range"));
  ViewMaintainer set_maintainer(set_fixture.set.get(), method);

  // K solo lanes: identical universes (same seed), one view each.
  std::vector<Lane> solo_lanes;
  for (const Shape& shape : shapes) {
    Lane lane;
    ASSERT_OK_AND_ASSIGN(lane.fixture,
                         MakeCountViewFixture(4, 120, shape, seed,
                                              /*with_sum=*/true, "range"));
    ASSERT_TRUE(set_fixture.local_base.ContentEquals(
        lane.fixture.local_base, /*tolerance=*/0.0));
    lane.maintainer = std::make_unique<ViewMaintainer>(
        lane.fixture.view.get(), method);
    solo_lanes.push_back(std::move(lane));
  }

  const std::vector<Step> steps =
      MakeWorkload(set_fixture.local_base, /*num_steps=*/4, seed + 1);

  for (size_t s = 0; s < steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    ASSERT_OK(set_maintainer.ApplyBatch(steps[s].updates).status());
    for (Lane& lane : solo_lanes) {
      ASSERT_OK(lane.maintainer->ApplyBatch(steps[s].updates).status());
    }
    if (steps[s].has_deletions) {
      ASSERT_OK(set_maintainer.ApplyDeletions(steps[s].deletions).status());
      for (Lane& lane : solo_lanes) {
        ASSERT_OK(ApplyDeletionBatch(lane.fixture.view.get(),
                                     steps[s].deletions)
                      .status());
      }
    }
    for (size_t k = 0; k < shapes.size(); ++k) {
      SCOPED_TRACE("view " + std::to_string(k));
      ASSERT_OK_AND_ASSIGN(SparseArray set_view,
                           set_fixture.set->view(k)->array().Gather());
      ASSERT_OK_AND_ASSIGN(SparseArray solo_view,
                           solo_lanes[k].fixture.view->array().Gather());
      // Bit-for-bit, not approximately: the demultiplexed shared pass IS
      // each view's own maintenance.
      EXPECT_TRUE(set_view.ContentEquals(solo_view, /*tolerance=*/0.0));
      EXPECT_TRUE(ViewMatchesRecompute(*set_fixture.set->view(k)));
    }
    // The shared base array evolves identically too.
    ASSERT_OK_AND_ASSIGN(
        SparseArray set_base,
        set_fixture.set->primary()->left_base().Gather());
    ASSERT_OK_AND_ASSIGN(SparseArray solo_base,
                         solo_lanes[0].fixture.view->left_base().Gather());
    EXPECT_TRUE(set_base.ContentEquals(solo_base, /*tolerance=*/0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndReps, SetDifferentialOracleTest,
    ::testing::Values(
        SetOracleParam{MaintenanceMethod::kBaseline,
                       DensificationMode::kAuto},
        SetOracleParam{MaintenanceMethod::kDifferential,
                       DensificationMode::kAuto},
        SetOracleParam{MaintenanceMethod::kReassign,
                       DensificationMode::kAuto},
        SetOracleParam{MaintenanceMethod::kDifferential,
                       DensificationMode::kForceDense},
        SetOracleParam{MaintenanceMethod::kDifferential,
                       DensificationMode::kForceSparse},
        SetOracleParam{MaintenanceMethod::kReassign,
                       DensificationMode::kForceDense}),
    [](const ::testing::TestParamInfo<SetOracleParam>& info) {
      return std::string(MaintenanceMethodName(info.param.method)) +
             RepName(info.param.rep);
    });

}  // namespace
}  // namespace avm
