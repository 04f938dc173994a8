// Concurrent query serving vs nightly maintenance: N reader threads evaluate
// a fixed probe query against snapshot-isolated view epochs while the control
// thread commits PTF-25 maintenance batches, each commit publishing a new
// epoch. Reports per-phase query latency (quiesced vs during-maintenance
// p50/p99), epoch-retirement lag, and a final bit-match of the last epoch's
// served content against the maintained view — the serve layer's whole value
// proposition is that the "maintain" column stays close to the "quiesced"
// one instead of blocking behind the batch.
//
// Emits BENCH_serve.json (or --out=PATH); --smoke shrinks the phases for CI,
// where the serve-smoke gate enforces p99_maintain <= 5x p99_quiesced.
// --readers=N sets the query thread count (default 4). --views=K maintains
// a K-member view set through the shared delta pass instead of a single
// view: readers rotate their probe across the members and assert every
// snapshot's epoch carries all K of them — a torn view set (some members
// published at epoch e, others at e+1) would fail immediately.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "maintenance/maintainer.h"
#include "serve/epoch_manager.h"
#include "serve/snapshot_query.h"
#include "telemetry/stopwatch.h"
#include "view/view_set.h"

namespace avm::bench {
namespace {

struct PhaseStats {
  uint64_t queries = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

double Percentile(std::vector<double>* sorted_latencies, double q) {
  if (sorted_latencies->empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_latencies->size() - 1));
  return (*sorted_latencies)[index];
}

PhaseStats Summarize(std::vector<std::vector<double>> per_thread) {
  std::vector<double> all;
  for (const std::vector<double>& latencies : per_thread) {
    all.insert(all.end(), latencies.begin(), latencies.end());
  }
  std::sort(all.begin(), all.end());
  PhaseStats stats;
  stats.queries = all.size();
  stats.p50_s = Percentile(&all, 0.5);
  stats.p99_s = Percentile(&all, 0.99);
  stats.max_s = all.empty() ? 0.0 : all.back();
  return stats;
}

/// Runs `readers` query threads against `manager` until `control` returns,
/// then summarizes their latencies. Each iteration opens one snapshot and
/// evaluates the next probe in rotation (so every view of a multi-view set
/// is served). Every query must succeed, come from a non-decreasing epoch
/// per thread, and — the atomicity assertion — the snapshot's epoch must
/// carry every view named by `probes`: members publish together or not at
/// all, so observing a partial set means a torn epoch.
template <typename Fn>
PhaseStats RunPhase(const EpochManager& manager,
                    const std::vector<SnapshotQuery>& probes, int readers,
                    Fn&& control) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(readers);
  std::vector<std::thread> threads;
  threads.reserve(readers);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      uint64_t iteration = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotQuery& probe = probes[iteration++ % probes.size()];
        Stopwatch clock;
        ReadSnapshot snapshot = manager.OpenSnapshot();
        Result<SnapshotQueryResult> result =
            EvaluateSnapshotQuery(snapshot, probe);
        AVM_CHECK(result.ok())
            << "probe query failed: " << result.status().ToString();
        AVM_CHECK(result.value().epoch_id >= last_epoch)
            << "epoch went backwards on reader " << r;
        last_epoch = result.value().epoch_id;
        latencies[static_cast<size_t>(r)].push_back(clock.ElapsedSeconds());
        // Off the latency clock: no epoch may ever expose a partial set.
        AVM_CHECK(snapshot.epoch().views().size() == probes.size())
            << "torn view set: epoch " << snapshot.epoch_id() << " carries "
            << snapshot.epoch().views().size() << " of " << probes.size()
            << " views";
        for (const SnapshotQuery& member : probes) {
          AVM_CHECK(snapshot.epoch().Find(member.view) != nullptr)
              << "torn view set: epoch " << snapshot.epoch_id()
              << " is missing " << member.view;
        }
      }
    });
  }
  control();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  return Summarize(std::move(latencies));
}

/// Sibling views of the PTF-25 primary for the --views=K set: same base,
/// mapping, grouping, and placement (the ViewSet membership contract), with
/// smaller spatial shapes cycling beneath the primary's L∞(2) so the set
/// has genuine per-member radii for the shared pass to demultiplex.
Result<std::unique_ptr<MaterializedView>> MakePtf25Sibling(
    PtfFixture* fixture, int64_t time_range, size_t index) {
  ViewDefinition def;
  def.view_name = "PTF25_view" + std::to_string(index);
  def.left_array = "PTF";
  def.right_array = "PTF";
  def.mapping = DimMapping::Identity(3);
  Shape spatial = Shape::LinfBall(3, 2, {1, 2});
  switch (index % 3) {
    case 1: spatial = Shape::LinfBall(3, 1, {1, 2}); break;
    case 2: spatial = Shape::L1Ball(3, 2, {1, 2}); break;
    default: spatial = Shape::L1Ball(3, 1, {1, 2}); break;
  }
  AVM_ASSIGN_OR_RETURN(
      def.shape,
      Shape::MinkowskiSum(spatial, Shape::Window(3, 0, -(time_range - 1),
                                                 time_range - 1)));
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
  AVM_ASSIGN_OR_RETURN(
      MaterializedView view,
      CreateMaterializedView(std::move(def), MakeRangePlacement(1),
                             fixture->catalog.get(), fixture->cluster.get()));
  return std::make_unique<MaterializedView>(std::move(view));
}

void WriteJson(const std::string& path, const std::string& mode, int readers,
               int views, int batches, const PhaseStats& quiesced,
               const PhaseStats& maintain, double maintain_wall_s,
               const EpochManager::RetirementStats& retire) {
  FILE* out = std::fopen(path.c_str(), "w");
  AVM_CHECK(out != nullptr) << "cannot open " << path;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve_driver\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", mode.c_str());
  std::fprintf(out, "  \"readers\": %d,\n", readers);
  std::fprintf(out, "  \"views\": %d,\n", views);
  std::fprintf(out, "  \"batches\": %d,\n", batches);
  std::fprintf(out,
               "  \"quiesced\": {\"queries\": %llu, \"p50_s\": %.6e, "
               "\"p99_s\": %.6e, \"max_s\": %.6e},\n",
               static_cast<unsigned long long>(quiesced.queries),
               quiesced.p50_s, quiesced.p99_s, quiesced.max_s);
  std::fprintf(out,
               "  \"maintain\": {\"queries\": %llu, \"p50_s\": %.6e, "
               "\"p99_s\": %.6e, \"max_s\": %.6e, \"wall_s\": %.6e},\n",
               static_cast<unsigned long long>(maintain.queries),
               maintain.p50_s, maintain.p99_s, maintain.max_s,
               maintain_wall_s);
  std::fprintf(out, "  \"p99_ratio\": %.4f,\n",
               quiesced.p99_s > 0.0 ? maintain.p99_s / quiesced.p99_s : 0.0);
  std::fprintf(out,
               "  \"retirement\": {\"published\": %llu, \"retired\": %llu, "
               "\"lagged\": %llu, \"mean_lag_s\": %.6e, \"max_lag_s\": "
               "%.6e}\n",
               static_cast<unsigned long long>(retire.published),
               static_cast<unsigned long long>(retire.retired),
               static_cast<unsigned long long>(retire.lagged),
               retire.lagged > 0
                   ? retire.total_lag_seconds /
                         static_cast<double>(retire.lagged)
                   : 0.0,
               retire.max_lag_seconds);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  bool smoke = false;
  int readers = 4;
  int num_views = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--readers=", 0) == 0) {
      readers = std::max(1, std::atoi(arg.c_str() + 10));
    } else if (arg.rfind("--views=", 0) == 0) {
      num_views = std::max(1, std::atoi(arg.c_str() + 8));
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--out=PATH] [--smoke] [--readers=N] [--views=K]\n",
          argv[0]);
      return 2;
    }
  }

  ExperimentScale scale = FigureScale();
  const int batches = smoke ? 3 : scale.num_batches;
  const double quiesced_seconds = smoke ? 0.3 : 2.0;

  PtfFixture fixture = OrDie(PtfFixture::MakePtf25(scale), "build PTF-25");
  std::vector<std::unique_ptr<MaterializedView>> siblings;
  ViewSet set;
  OrDie(set.AddView(fixture.view.get()), "add primary to set");
  for (int k = 1; k < num_views; ++k) {
    siblings.push_back(OrDie(
        MakePtf25Sibling(&fixture, scale.ptf.time_range,
                         static_cast<size_t>(k)),
        "build sibling view"));
    OrDie(set.AddView(siblings.back().get()), "add sibling to set");
  }
  fixture.cluster->ResetClocks();

  // The shared delta pass maintains all members; a K=1 set degenerates to
  // the single-view plans and kernels bit-for-bit.
  ViewMaintainer maintainer(&set, MaintenanceMethod::kReassign);
  EpochManager manager;
  maintainer.AttachEpochManager(&manager);

  // Batch generation happens off every measured clock.
  const std::vector<SparseArray> nights =
      OrDie(fixture.generator->MakeRealBatches(batches), "make batches");

  // Epoch 1: the initial materialization of every member.
  std::vector<ViewPin> pins;
  for (const MaterializedView* view : set.views()) {
    pins.push_back(EpochManager::PinView(*view));
  }
  manager.Publish(std::move(pins));

  // Fixed probe region: the busiest eighth of the sky, all time slices —
  // bounded so a query is a realistic region read, not a full-view dump.
  // One probe per member; readers rotate through them.
  const auto& dims = fixture.generator->schema().dims();
  const std::vector<int64_t> probe_lo = {dims[0].lo, dims[1].lo, dims[2].lo};
  const std::vector<int64_t> probe_hi = {
      dims[0].hi, dims[1].lo + (dims[1].hi - dims[1].lo) / 8,
      dims[2].lo + (dims[2].hi - dims[2].lo) / 8};
  std::vector<SnapshotQuery> probes;
  for (const MaterializedView* view : set.views()) {
    probes.push_back(SnapshotQuery{view->definition().view_name, probe_lo, probe_hi});
  }

  // Phase 1 — quiesced: serving with no concurrent maintenance.
  const PhaseStats quiesced =
      RunPhase(manager, probes, readers, [&] {
        Stopwatch clock;
        while (clock.ElapsedSeconds() < quiesced_seconds) {
          std::this_thread::yield();
        }
      });

  // Phase 2 — during maintenance: the same serving loop while every nightly
  // batch is maintained and published.
  Stopwatch maintain_clock;
  const PhaseStats maintain = RunPhase(manager, probes, readers, [&] {
    for (const SparseArray& night : nights) {
      const MaintenanceReport report =
          OrDie(maintainer.ApplyBatch(night), "apply batch");
      AVM_CHECK(report.published_epoch > 0) << "batch did not publish";
    }
  });
  const double maintain_wall_s = maintain_clock.ElapsedSeconds();

  // Served content of the final epoch must bit-match every maintained
  // member, and exactly one epoch was published per batch commit.
  for (size_t k = 0; k < set.size(); ++k) {
    const SnapshotQueryResult last = OrDie(
        EvaluateSnapshotQuery(manager.OpenSnapshot(),
                              SnapshotQuery{set.view(k)->definition().view_name, {}, {}}),
        "final full-view query");
    AVM_CHECK(last.epoch_id == static_cast<uint64_t>(batches) + 1)
        << "expected one epoch per batch commit";
    const SparseArray truth =
        OrDie(set.view(k)->GatherFinalized(), "gather finalized");
    AVM_CHECK(last.finalized.ContentEquals(truth, 0.0))
        << "served epoch diverged from maintained view " << k;
  }

  const EpochManager::RetirementStats retire = manager.retirement();
  std::printf("%-10s %10s %12s %12s %12s\n", "phase", "queries", "p50 s",
              "p99 s", "max s");
  std::printf("%-10s %10llu %12.3e %12.3e %12.3e\n", "quiesced",
              static_cast<unsigned long long>(quiesced.queries),
              quiesced.p50_s, quiesced.p99_s, quiesced.max_s);
  std::printf("%-10s %10llu %12.3e %12.3e %12.3e\n", "maintain",
              static_cast<unsigned long long>(maintain.queries),
              maintain.p50_s, maintain.p99_s, maintain.max_s);
  std::printf(
      "p99 ratio %.2fx over %d batches (%.2fs wall); epochs published %llu, "
      "retired %llu, mean lag %.3es, max lag %.3es\n",
      quiesced.p99_s > 0.0 ? maintain.p99_s / quiesced.p99_s : 0.0, batches,
      maintain_wall_s, static_cast<unsigned long long>(retire.published),
      static_cast<unsigned long long>(retire.retired),
      retire.lagged > 0
          ? retire.total_lag_seconds / static_cast<double>(retire.lagged)
          : 0.0,
      retire.max_lag_seconds);
  WriteJson(out_path, smoke ? "smoke" : "full", readers, num_views, batches,
            quiesced, maintain, maintain_wall_s, retire);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace avm::bench

int main(int argc, char** argv) { return avm::bench::Main(argc, argv); }
