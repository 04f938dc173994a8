// Figure 6: answering similarity-join queries with a materialized view
// (differential ∆-shape evaluation) versus a complete similarity join, on
// the PTF dataset, for the paper's four view<-query shape pairs:
//
//     L1(3) <- L∞(2),  L2(2) <- L∞(2),  L∞(1) <- L1(1),  L∞(1) <- L∞(2)
//
// Shape radii are in *chunks* of (ra, dec) — the granularity the paper's
// ∆-shape diagrams (Figure 4) operate at: maintenance, planning, and the
// cost model are all chunk-granular, so a sub-chunk ∆ would be invisible
// to them. The winner follows the |∆|/|query| ratio (e.g. 4/9 for
// L∞(1) <- L1(1) favors the view, 16/9 for L∞(1) <- L∞(2) favors the
// complete join) — and the analytical cost model of Section 5 must pick
// the faster alternative in each case.

// --views=K maintains the queried view as a member of a K-view set before
// the query A/B: one update batch flows through the shared delta pass, so
// the strategy-equivalence gate also certifies that set-maintained views
// answer queries identically to solo-maintained ones.

#include <memory>
#include <optional>

#include "bench/bench_util.h"
#include "maintenance/maintainer.h"
#include "query/query_planner.h"
#include "view/view_set.h"

namespace avm::bench {
namespace {

/// K of the --views=K knob (1 = the classic single-view figure).
int& NumViews() {
  static int views = 1;
  return views;
}

/// Consumes --views=K / --views K before benchmark::Initialize sees it.
void ParseViewsFlag(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--views=", 0) == 0) {
      NumViews() = std::max(1, std::atoi(arg.c_str() + 8));
    } else if (arg == "--views" && i + 1 < *argc) {
      NumViews() = std::max(1, std::atoi(argv[++i]));
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
}

struct QueryCase {
  const char* label;          // "L∞(1) <- L1(1)"
  const char* view_kind;      // which materialized view to use
  Shape query_spatial;
};

struct QueryRow {
  std::string label;
  double complete_s = 0;
  double view_s = 0;
  double ratio = 0;
  std::string chosen;
};

std::vector<QueryRow>& Rows() {
  static auto* rows = new std::vector<QueryRow>();
  return *rows;
}

/// Builds a PTF experiment whose view uses the given (chunk-scale) spatial
/// shape at zero time offset — a same-exposure cross-match view. View and
/// queries share the zero time offset, so the ∆ shape is purely spatial,
/// like the paper's (ra, dec) figures.
struct QueryFixture {
  PreparedExperiment experiment;
  std::unique_ptr<PtfGenerator> generator;
  std::vector<std::unique_ptr<MaterializedView>> siblings;

  static Result<QueryFixture> Make(const Shape& view_spatial, int num_views) {
    ExperimentScale scale = FigureScale();
    scale.num_batches = 0;
    QueryFixture fixture{{}};
    AVM_ASSIGN_OR_RETURN(PtfGenerator gen, [&]() {
      PtfOptions ptf = scale.ptf;
      ptf.seed ^= scale.seed;
      return PtfGenerator::Create(ptf);
    }());
    fixture.generator = std::make_unique<PtfGenerator>(std::move(gen));
    fixture.experiment.catalog = std::make_unique<Catalog>();
    fixture.experiment.cluster =
        std::make_unique<Cluster>(scale.num_workers, scale.cost_model);
    AVM_ASSIGN_OR_RETURN(
        DistributedArray base,
        DistributedArray::Create(fixture.generator->schema(),
                                 MakeRangePlacement(1),
                                 fixture.experiment.catalog.get(),
                                 fixture.experiment.cluster.get()));
    AVM_RETURN_IF_ERROR(base.Ingest(fixture.generator->base()));
    ViewDefinition def;
    def.view_name = "PTF_query_view";
    def.left_array = "PTF";
    def.right_array = "PTF";
    def.mapping = DimMapping::Identity(3);
    def.shape = view_spatial;
    def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
    AVM_ASSIGN_OR_RETURN(
        MaterializedView view,
        CreateMaterializedView(std::move(def), MakeRangePlacement(1),
                               fixture.experiment.catalog.get(),
                               fixture.experiment.cluster.get()));
    fixture.experiment.view =
        std::make_unique<MaterializedView>(std::move(view));

    if (num_views > 1) {
      // Pool the queried view with K-1 smaller-shape siblings and push one
      // update batch through the shared delta pass, so the strategy A/B
      // below runs against a set-maintained view.
      ViewSet set;
      AVM_RETURN_IF_ERROR(set.AddView(fixture.experiment.view.get()));
      const std::vector<double> weights = {100.0, 50.0};
      for (int k = 1; k < num_views; ++k) {
        ViewDefinition sibling;
        sibling.view_name = "PTF_query_view" + std::to_string(k);
        sibling.left_array = "PTF";
        sibling.right_array = "PTF";
        sibling.mapping = DimMapping::Identity(3);
        sibling.shape = Shape::WeightedBall(
            3, k % 2 == 1 ? Shape::Norm::kL1 : Shape::Norm::kLinf, 1.0,
            weights, {1, 2});
        sibling.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
        AVM_ASSIGN_OR_RETURN(
            MaterializedView sib,
            CreateMaterializedView(std::move(sibling), MakeRangePlacement(1),
                                   fixture.experiment.catalog.get(),
                                   fixture.experiment.cluster.get()));
        fixture.siblings.push_back(
            std::make_unique<MaterializedView>(std::move(sib)));
        AVM_RETURN_IF_ERROR(set.AddView(fixture.siblings.back().get()));
      }
      AVM_ASSIGN_OR_RETURN(std::vector<SparseArray> batch,
                           fixture.generator->MakeRealBatches(1));
      ViewMaintainer maintainer(&set, MaintenanceMethod::kReassign);
      AVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                           maintainer.ApplyBatch(batch[0]));
      (void)report;
    }
    fixture.experiment.cluster->ResetClocks();
    return fixture;
  }
};

void RunCase(::benchmark::State& state, const char* label,
             const Shape& view_spatial, const Shape& query_spatial) {
  for (auto _ : state) {
    QueryFixture fixture = OrDie(QueryFixture::Make(view_spatial, NumViews()),
                                 "build query fixture");
    const Shape& query = query_spatial;
    SimilarityQueryPlanner planner(fixture.experiment.view.get());
    auto complete = OrDie(
        planner.Execute(query, QueryStrategy::kCompleteJoin), "complete");
    auto with_view = OrDie(
        planner.Execute(query, QueryStrategy::kDifferentialOnView), "view");
    OrDie(complete.states.ContentEquals(with_view.states, 1e-9)
              ? Status::OK()
              : Status::Internal("strategies disagree on " +
                                 std::string(label)),
          "answer equivalence");
    state.counters["complete_s"] = complete.sim_seconds;
    state.counters["view_s"] = with_view.sim_seconds;
    state.counters["delta_ratio"] = with_view.estimate.DeltaRatio();
    Rows().push_back({label, complete.sim_seconds, with_view.sim_seconds,
                      with_view.estimate.DeltaRatio(),
                      std::string(QueryStrategyName(
                          with_view.estimate.chosen))});
  }
}

void RegisterAll() {
  // Radii in chunks of (ra, dec): weights = the chunk extents (100, 50).
  static const std::vector<double> kW = {100.0, 50.0};
  static const Shape kL1_1 =
      Shape::WeightedBall(3, Shape::Norm::kL1, 1.0, kW, {1, 2});
  static const Shape kL1_3 =
      Shape::WeightedBall(3, Shape::Norm::kL1, 3.0, kW, {1, 2});
  static const Shape kL2_2 =
      Shape::WeightedBall(3, Shape::Norm::kL2, 2.0, kW, {1, 2});
  static const Shape kLinf_1 =
      Shape::WeightedBall(3, Shape::Norm::kLinf, 1.0, kW, {1, 2});
  static const Shape kLinf_2 =
      Shape::WeightedBall(3, Shape::Norm::kLinf, 2.0, kW, {1, 2});
  struct Entry {
    const char* name;
    const char* label;
    const Shape* view;
    const Shape* query;
  };
  static const Entry kEntries[] = {
      {"BM_Fig6/L1_3_from_Linf_2", "L1(3) <- L inf(2)", &kLinf_2, &kL1_3},
      {"BM_Fig6/L2_2_from_Linf_2", "L2(2) <- L inf(2)", &kLinf_2, &kL2_2},
      {"BM_Fig6/Linf_1_from_L1_1", "L inf(1) <- L1(1)", &kL1_1, &kLinf_1},
      {"BM_Fig6/Linf_1_from_Linf_2", "L inf(1) <- L inf(2)", &kLinf_2,
       &kLinf_1},
  };
  for (const Entry& entry : kEntries) {
    ::benchmark::RegisterBenchmark(
        entry.name,
        [&entry](::benchmark::State& state) {
          RunCase(state, entry.label, *entry.view, *entry.query);
        })
        ->Unit(::benchmark::kMillisecond)
        ->Iterations(1);
  }
}

void PrintPaperTable() {
  std::printf(
      "\n===== Figure 6: differential query on the view vs complete "
      "similarity join (simulated seconds) =====\n");
  std::printf("%-22s %12s %12s %8s   %s\n", "query <- view", "complete",
              "view", "|d|/|q|", "cost model picks");
  for (const auto& row : Rows()) {
    std::printf("%-22s %11.4fs %11.4fs %8.2f   %s\n", row.label.c_str(),
                row.complete_s, row.view_s, row.ratio, row.chosen.c_str());
  }
}

}  // namespace
}  // namespace avm::bench

int main(int argc, char** argv) {
  avm::bench::ParseThreadsFlag(&argc, argv);
  avm::bench::ParseViewsFlag(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  avm::bench::RegisterAll();
  ::benchmark::RunSpecifiedBenchmarks();
  avm::bench::PrintPaperTable();
  ::benchmark::Shutdown();
  return 0;
}
