// The repository benchmark program: runs one maintenance workload through
// the layers' public functions, times every call from outside, verifies the
// results, and writes the raw samples as JSON for perfbench/analysis.py.
//
//   avm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --out FILE [--chrome-trace FILE] [--spill-dir DIR]
//
// perfbench/run.py builds this program, refuses unoptimized builds and
// prints the metrics BENCHMARK.json names; run that rather than this binary.
//
// A run repeats one *sequence* -- set up (generate, ingest, materialize),
// maintain every batch, verify -- in rounds over the workload's K datasets:
// sequence j draws its inputs from the sub-seed of (N, j mod K), generated
// before its maintenance clock starts. The run ends at the round boundary
// nearest to S seconds once every dataset has run twice and the sample
// floors are met, so every run of seed N measures the same K datasets in
// equal shares, however fast the host or the code, and each dataset has a
// fastest repeat to report. Verification runs off every clock. A failed
// Status is counted, never fatal mid-measurement.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cluster/catalog.h"
#include "cluster/cluster.h"
#include "cluster/distributed_array.h"
#include "common/rng.h"
#include "join/reference.h"
#include "maintenance/deletions.h"
#include "maintenance/maintainer.h"
#include "serve/epoch_manager.h"
#include "serve/snapshot_query.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "view/materialized_view.h"
#include "workload/geo.h"
#include "workload/ptf.h"

namespace avm::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

uint64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

enum class Kind { kPtf25Real, kGeoChurn, kPtf5ServeSpill };

/// Fixed sizing of one workload, so two commits always run identical work.
struct Workload {
  Kind kind;
  const char* name;
  int executor_threads;  // Cluster pool size, the calling thread included
  int batches;           // insert batches per sequence
  int readers;           // open-loop reader threads
  double reader_hz;      // due-time rate of each reader
  int budget_divisor;    // buffer budget = in-memory footprint / this; 0: none
  int datasets;          // K: distinct input datasets, one round of sequences
  size_t min_queries;    // floor: query_p99_ms needs ten samples beyond it
};

// Floor on rounds: every dataset runs at least this often in a run.
constexpr uint64_t kMinRounds = 2;

// Thread budget: at most 4 host threads run at once (the control thread is
// part of the executor pool; the serve workload runs serially beside its
// two readers). The readers' rate is fixed, not derived from the host, so
// two commits serve the same offered load; each run measures the closed-loop
// saturation rate and reports the offered load as a share of it. On a 4-core
// x86-64 VM a query takes about 0.6 ms closed-loop and two readers saturate
// near 3300 queries/s, so 2 x 100 Hz offers about 6% of saturation and a
// query that misses its reader's 10 ms period is a real stall.
constexpr Workload kWorkloads[] = {
    {Kind::kPtf25Real, "ptf25-real", 4, 10, 0, 0.0, 0, 3, 0},
    {Kind::kGeoChurn, "geo-churn", 1, 20, 0, 0.0, 0, 3, 0},
    {Kind::kPtf5ServeSpill, "ptf5-serve-spill", 1, 10, 2, 100.0, 4, 8, 1000},
};

// Closed-loop queries each reader issues to measure the service time and the
// saturation rate, off every clock, after the first sequence's maintenance.
constexpr int kCalibrationQueries = 250;

constexpr int kWorkers = 8;  // the paper's cluster: 8 workers + coordinator

/// The PTF catalog geometry of the figure benches (a 40x40 chunk sky, one
/// night's pointing covering 4x3 chunks), at a per-workload cell count.
PtfOptions PtfScale(Kind kind, uint64_t seed) {
  PtfOptions ptf;
  ptf.time_range = 2240;
  ptf.ra_range = 4000;
  ptf.dec_range = 2000;
  ptf.base_pointed_frac = 0.98;
  ptf.pointing_ra_chunks = 4;
  ptf.pointing_dec_chunks = 3;
  // Narrow batch-size ranges keep the work of one sequence close to that of
  // another, so a run's median moves little with the seed.
  if (kind == Kind::kPtf25Real) {
    ptf.base_cells = 12000;
    ptf.batch_cells_min = 2800;
    ptf.batch_cells_max = 3200;
  } else {
    ptf.base_cells = 4000;
    ptf.batch_cells_min = 700;
    ptf.batch_cells_max = 900;
  }
  ptf.seed = seed;
  return ptf;
}

GeoOptions GeoScale(uint64_t seed) {
  GeoOptions geo;
  geo.seed_pois = 4000;
  geo.batch_frac = 0.01;
  geo.seed = seed;
  return geo;
}

/// One sequence's inputs, all generated before its maintenance clock.
struct Inputs {
  SparseArray base;
  std::vector<SparseArray> inserts;
  std::vector<SparseArray> deletes;  // geo-churn: deletes[i] follows inserts[i]
  ViewDefinition view;
  size_t range_dim;  // range placement partitions the sky, never time
};

/// Deletion batch i removes as many POIs as insert batch i added, drawn
/// uniformly from the POIs live after that insert (the base plus earlier
/// inserts, minus earlier deletions), so the dataset keeps its size.
Result<std::vector<SparseArray>> DrawDeletions(const GeoDataset& data,
                                               uint64_t seed) {
  std::vector<CellCoord> live;
  auto collect = [&live](const SparseArray& cells) {
    cells.ForEachCell(
        [&live](std::span<const int64_t> c, std::span<const double>) {
          live.emplace_back(c.begin(), c.end());
        });
  };
  collect(data.base);
  Rng rng(seed ^ 0xde1e7e5eedULL);
  const double zero = 0.0;
  std::vector<SparseArray> deletes;
  for (const SparseArray& inserted : data.random_batches) {
    collect(inserted);
    SparseArray victims(data.schema);
    const uint64_t count = std::min<uint64_t>(inserted.NumCells(), live.size());
    for (uint64_t k = 0; k < count; ++k) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      AVM_RETURN_IF_ERROR(victims.Set(live[pick], {&zero, 1}));
      live[pick] = std::move(live.back());
      live.pop_back();
    }
    deletes.push_back(std::move(victims));
  }
  return deletes;
}

Result<Inputs> Generate(const Workload& w, uint64_t seed) {
  ViewDefinition def;
  def.aggregates = {{AggregateFunction::kCount, 0, "cnt"}};
  if (w.kind == Kind::kGeoChurn) {
    AVM_ASSIGN_OR_RETURN(GeoDataset data, GenerateGeo(GeoScale(seed), w.batches));
    AVM_ASSIGN_OR_RETURN(std::vector<SparseArray> deletes,
                         DrawDeletions(data, seed));
    def.view_name = "GEO_view";
    def.left_array = def.right_array = "GEO";
    def.mapping = DimMapping::Identity(2);
    def.shape = Shape::LinfBall(2, 1);
    return Inputs{std::move(data.base), std::move(data.random_batches),
                  std::move(deletes), std::move(def), 0};
  }
  const PtfOptions options = PtfScale(w.kind, seed);
  AVM_ASSIGN_OR_RETURN(PtfGenerator gen, PtfGenerator::Create(options));
  AVM_ASSIGN_OR_RETURN(std::vector<SparseArray> nights,
                       gen.MakeRealBatches(w.batches));
  const int64_t t = options.time_range;
  def.left_array = def.right_array = "PTF";
  def.mapping = DimMapping::Identity(3);
  if (w.kind == Kind::kPtf25Real) {
    // PTF-25: L-inf(2) on (ra, dec), any time distance.
    def.view_name = "PTF25_view";
    AVM_ASSIGN_OR_RETURN(def.shape, Shape::MinkowskiSum(
                                        Shape::LinfBall(3, 2, {1, 2}),
                                        Shape::Window(3, 0, -(t - 1), t - 1)));
  } else {
    // PTF-5: L1(1) on (ra, dec) over the previous time window.
    def.view_name = "PTF5_view";
    AVM_ASSIGN_OR_RETURN(def.shape,
                         Shape::MinkowskiSum(Shape::L1Ball(3, 1, {1, 2}),
                                             Shape::Window(3, 0, -(t - 1), 0)));
  }
  return Inputs{gen.base().Clone(), std::move(nights), {}, std::move(def), 1};
}

/// Every workload's view is a COUNT over a spatial ball on the last two
/// dimensions, crossed with a rule on the leading time dimension (PTF only).
/// That admits a closed-form recount that shares no code with the join.
struct CountOracle {
  int64_t radius;
  bool l1;  // L1 ball; otherwise L-inf
  enum class Time { kNone, kAny, kNotLater } time;
};

CountOracle OracleFor(Kind kind) {
  switch (kind) {
    case Kind::kPtf25Real:
      return {2, false, CountOracle::Time::kAny};
    case Kind::kGeoChurn:
      return {1, false, CountOracle::Time::kNone};
    case Kind::kPtf5ServeSpill:
      break;
  }
  return {1, true, CountOracle::Time::kNotLater};
}

/// The exact view `oracle` defines over `base`: each cell's count is the
/// number of base cells at its ball's spatial offsets whose time passes the
/// rule, found in a per-position sorted list of times.
Result<SparseArray> Recount(const SparseArray& base, const CountOracle& oracle,
                            const ArraySchema& view_schema) {
  const bool timed = oracle.time != CountOracle::Time::kNone;
  std::map<std::pair<int64_t, int64_t>, std::vector<int64_t>> times;
  base.ForEachCell([&](std::span<const int64_t> c, std::span<const double>) {
    times[{c[c.size() - 2], c[c.size() - 1]}].push_back(timed ? c[0] : 0);
  });
  for (auto& [position, list] : times) std::sort(list.begin(), list.end());
  std::vector<std::pair<int64_t, int64_t>> offsets;
  for (int64_t a = -oracle.radius; a <= oracle.radius; ++a) {
    for (int64_t b = -oracle.radius; b <= oracle.radius; ++b) {
      if (!oracle.l1 || std::abs(a) + std::abs(b) <= oracle.radius) {
        offsets.emplace_back(a, b);
      }
    }
  }
  SparseArray expected(view_schema);
  Status status = Status::OK();
  base.ForEachCell([&](std::span<const int64_t> c, std::span<const double>) {
    double count = 0.0;
    for (const auto& [a, b] : offsets) {
      const auto it = times.find({c[c.size() - 2] + a, c[c.size() - 1] + b});
      if (it == times.end()) continue;
      count += static_cast<double>(
          oracle.time == CountOracle::Time::kNotLater
              ? std::upper_bound(it->second.begin(), it->second.end(), c[0]) -
                    it->second.begin()
              : static_cast<std::ptrdiff_t>(it->second.size()));
    }
    if (status.ok()) {
      status = expected.Set(CellCoord(c.begin(), c.end()), {&count, 1});
    }
  });
  AVM_RETURN_IF_ERROR(status);
  return expected;
}

/// The off-clock oracle, two ways: the closed-form recount of the whole
/// view, and the repository's single-node reference implementation on a
/// seeded sample of cells. The reference probes every shape offset per
/// cell -- 76,775 of them for PTF-25 -- so recomputing the whole view with
/// it (MaterializedView::RecomputeReferenceStates) takes minutes per
/// sequence; the sample is about 2^18 probes' worth of cells.
Result<bool> ViewMatchesRecomputation(const MaterializedView& view,
                                      const CountOracle& oracle,
                                      uint64_t seed) {
  AVM_ASSIGN_OR_RETURN(SparseArray maintained, view.array().Gather());
  AVM_ASSIGN_OR_RETURN(SparseArray base, view.left_base().Gather());
  AVM_ASSIGN_OR_RETURN(SparseArray recounted,
                       Recount(base, oracle, view.array().schema()));
  if (!maintained.ContentEquals(recounted, 0.0)) return false;

  std::vector<CellCoord> coords;
  base.ForEachCell([&coords](std::span<const int64_t> c,
                             std::span<const double>) {
    coords.emplace_back(c.begin(), c.end());
  });
  const size_t sample_size =
      std::clamp<size_t>((size_t{1} << 18) / view.definition().shape.size(), 8,
                         256);
  Rng rng(seed);
  SparseArray sample(base.schema());
  const size_t num_attrs = base.schema().num_attrs();
  for (size_t k = 0; k < std::min(sample_size, coords.size()); ++k) {
    std::swap(coords[k], coords[k + rng.Uniform(coords.size() - k)]);
    AVM_ASSIGN_OR_RETURN(const double* values, base.Get(coords[k]));
    AVM_RETURN_IF_ERROR(sample.Set(coords[k], {values, num_attrs}));
  }
  AVM_ASSIGN_OR_RETURN(SparseArray reference,
                       ReferenceJoinAggregate(sample, base, view.JoinSpec(),
                                              view.array().schema()));
  SparseArray expected(view.array().schema());
  const size_t num_states = view.array().schema().num_attrs();
  Status status = Status::OK();
  reference.ForEachCell(
      [&](std::span<const int64_t> c, std::span<const double>) {
        const CellCoord coord(c.begin(), c.end());
        const Result<const double*> state = maintained.Get(coord);
        if (status.ok() && state.ok()) {
          status = expected.Set(coord, {state.value(), num_states});
        }
      });
  AVM_RETURN_IF_ERROR(status);
  return reference.ContentEquals(expected, 1e-9);
}

/// One sequence's system under test. The buffer manager is declared last so
/// it detaches before the stores it borrows are destroyed.
struct System {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<MaterializedView> view;
  std::unique_ptr<BufferManager> buffer;
};

struct QuerySample {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool ok = false;
};

/// Raw record of one sequence; analysis.py reduces these.
struct Sequence {
  uint64_t seed = 0;
  double generate_s = 0.0;
  double ingest_s = 0.0;
  double materialize_s = 0.0;
  double buffer_register_s = 0.0;
  double maint_wall_s = 0.0;
  uint64_t cells = 0;  // inserted + deleted cells
  double sim_makespan_s = 0.0;
  std::vector<double> batch_s;
  std::vector<double> delete_s;
  std::vector<double> publish_s;
  std::vector<double> rebalance_s;
  double triples_s = 0.0;
  double plan_s = 0.0;
  double exec_s = 0.0;
  uint64_t pairs = 0;
  uint64_t triples = 0;
  uint64_t bytes_transferred = 0;
  uint64_t bytes_joined = 0;
  uint64_t base_chunks_moved = 0;
  uint64_t retraction_joins = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t footprint_bytes = 0;
  uint64_t budget_bytes = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  double retire_lag_max_s = 0.0;
  uint64_t peak_rss_bytes = 0;  // after maintenance, before verification
  bool view_matches = false;    // maintained view == recomputation
  bool served_matches = true;   // last epoch == gathered view (serve only)
  std::string error;            // first failure, for the log
};

void NoteFailure(Sequence* seq, const Status& status) {
  ++seq->failed;
  if (seq->error.empty()) seq->error = status.ToString();
}

void RaiseTo(std::atomic<int64_t>* max, int64_t value) {
  int64_t seen = max->load(std::memory_order_relaxed);
  while (value > seen && !max->compare_exchange_weak(seen, value)) {
  }
}

/// Runs `readers` open-loop reader threads while `control` runs. Reader r is
/// due every 1/hz seconds, offset by r/readers of a period; a query starts
/// at its due time or, when the reader is behind, as soon as the previous
/// one returns, and its latency counts from the due time. Queries due before
/// `control` returns are all issued.
template <typename Fn>
void WithOpenLoopReaders(const EpochManager& epochs, const SnapshotQuery& query,
                         const Workload& w, std::vector<QuerySample>* out,
                         std::atomic<int64_t>* epochs_live_max, Fn&& control) {
  std::atomic<int64_t> stop_ns{INT64_MAX};
  std::vector<std::vector<QuerySample>> samples(static_cast<size_t>(w.readers));
  const int64_t period_ns = static_cast<int64_t>(1e9 / w.reader_hz);
  const int64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (int r = 0; r < w.readers; ++r) {
    threads.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      for (int64_t due = start_ns + period_ns * r / w.readers;;
           due += period_ns) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        if (due >= stop_ns.load(std::memory_order_acquire)) break;
        QuerySample sample;
        sample.due_ns = due;
        sample.start_ns = NowNs();
        {
          ScopedSpan span("bench.query", "bench");
          const ReadSnapshot snapshot = epochs.OpenSnapshot();
          const Result<SnapshotQueryResult> result =
              EvaluateSnapshotQuery(snapshot, query);
          sample.ok = result.ok() && result.value().epoch_id >= last_epoch;
          if (result.ok()) last_epoch = result.value().epoch_id;
        }
        sample.end_ns = NowNs();
        samples[static_cast<size_t>(r)].push_back(sample);
        RaiseTo(epochs_live_max, static_cast<int64_t>(epochs.epochs_live()));
      }
    });
  }
  control();
  stop_ns.store(NowNs(), std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<QuerySample>& s : samples) {
    out->insert(out->end(), s.begin(), s.end());
  }
}

/// Closed-loop calibration: `readers` threads each issue kCalibrationQueries
/// queries back to back against the latest epoch. Appends every query's
/// service time to `service_s` and returns the phase's wall time, so the
/// saturation rate is the query count over it. Failed queries add to
/// `*failed`.
double CalibrateQueries(const EpochManager& epochs, const SnapshotQuery& query,
                        int readers, std::vector<double>* service_s,
                        uint64_t* failed) {
  std::vector<std::vector<double>> samples(static_cast<size_t>(readers));
  std::atomic<uint64_t> failures{0};
  const int64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      for (int q = 0; q < kCalibrationQueries; ++q) {
        const int64_t call = NowNs();
        const Result<SnapshotQueryResult> result =
            EvaluateSnapshotQuery(epochs.OpenSnapshot(), query);
        samples[static_cast<size_t>(r)].push_back(SecondsSince(call));
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_s = SecondsSince(start_ns);
  for (const std::vector<double>& s : samples) {
    service_s->insert(service_s->end(), s.begin(), s.end());
  }
  *failed += failures.load();
  return wall_s;
}

/// Adds the counters and histogram buckets of `delta` into `total`; gauges
/// keep the latest value.
void Accumulate(const MetricsSnapshot& delta, MetricsSnapshot* total) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    total->counters[i] += delta.counters[i];
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    for (size_t b = 0; b < kNumHistogramBuckets; ++b) {
      total->histograms[h][b] += delta.histograms[h][b];
    }
  }
  total->gauges = delta.gauges;
}

struct RunState {
  std::vector<QuerySample> queries;
  std::atomic<int64_t> epochs_live_max{0};
  std::atomic<bool> maintaining{false};  // gates the queue-depth sampler
  MetricsSnapshot maintenance_metrics;   // summed over maintenance windows
  std::vector<double> calibration_s;     // closed-loop query service times
  double calibration_wall_s = 0.0;
};

/// Sets up, maintains and verifies one sequence. Returns an error only when
/// set-up fails; maintenance and query failures are counted in the record.
Result<Sequence> RunSequence(const Workload& w, uint64_t seed,
                             const std::string& spill_dir, RunState* run) {
  Sequence seq;
  seq.seed = seed;
  int64_t t = NowNs();
  Result<Inputs> generated = [&] {
    ScopedSpan span("bench.generate", "bench");
    return Generate(w, seed);
  }();
  AVM_RETURN_IF_ERROR(generated.status());
  const Inputs& in = generated.value();
  seq.generate_s = SecondsSince(t);

  System sys;
  t = NowNs();
  {
    ScopedSpan span("bench.ingest", "bench");
    sys.catalog = std::make_unique<Catalog>();
    sys.cluster =
        std::make_unique<Cluster>(kWorkers, CostModel(), w.executor_threads);
    AVM_ASSIGN_OR_RETURN(
        DistributedArray base,
        DistributedArray::Create(in.base.schema(),
                                 MakeRangePlacement(in.range_dim),
                                 sys.catalog.get(), sys.cluster.get()));
    AVM_RETURN_IF_ERROR(base.Ingest(in.base));
  }
  seq.ingest_s = SecondsSince(t);

  t = NowNs();
  {
    ScopedSpan span("bench.materialize", "bench");
    AVM_ASSIGN_OR_RETURN(
        MaterializedView view,
        CreateMaterializedView(in.view, MakeRangePlacement(in.range_dim),
                               sys.catalog.get(), sys.cluster.get()));
    sys.view = std::make_unique<MaterializedView>(std::move(view));
  }
  seq.materialize_s = SecondsSince(t);
  sys.cluster->ResetClocks();
  MaterializedView* view = sys.view.get();
  std::vector<ChunkStore*> stores;
  for (NodeId n = 0; n < kWorkers; ++n) stores.push_back(&sys.cluster->store(n));
  stores.push_back(&sys.cluster->store(kCoordinatorNode));

  if (w.budget_divisor > 0) {
    for (const ChunkStore* store : stores) {
      const ChunkStore::FormatResidency r = store->ResidencyByFormat();
      seq.footprint_bytes += r.sparse_bytes + r.dense_bytes;
    }
    t = NowNs();
    ScopedSpan span("bench.buffer_register", "bench");
    BufferOptions options;
    options.budget_bytes = seq.footprint_bytes / w.budget_divisor;
    options.spill_dir = spill_dir;
    seq.budget_bytes = options.budget_bytes;
    sys.buffer = std::make_unique<BufferManager>(options);
    for (ChunkStore* store : stores) sys.buffer->Register(store);
    seq.buffer_register_s = SecondsSince(t);
  }

  ViewMaintainer maintainer(view, MaintenanceMethod::kReassign);
  auto epochs = std::make_unique<EpochManager>();
  const bool serve = w.readers > 0;
  if (serve) epochs->Publish({EpochManager::PinView(*view)});

  // The readers' region: every time slice of the sky strip the nightly
  // pointings drift across, so queries read chunks maintenance rewrites.
  const ArraySchema& schema = in.base.schema();
  const int64_t ra_span = schema.dims()[1].hi - schema.dims()[1].lo + 1;
  const int64_t dec_mid = (schema.dims()[2].lo + schema.dims()[2].hi) / 2;
  const int64_t dec_half = (schema.dims()[2].hi - schema.dims()[2].lo) / 8;
  const SnapshotQuery query{
      in.view.view_name,
      {schema.dims()[0].lo, schema.dims()[1].lo + ra_span * 3 / 10,
       dec_mid - dec_half},
      {schema.dims()[0].hi, schema.dims()[1].lo + ra_span * 3 / 10 + ra_span / 8,
       dec_mid + dec_half}};

  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  run->maintaining.store(true);
  auto maintain = [&] {
    ScopedSpan maintain_span("bench.maintain", "bench");
    const int64_t start = NowNs();
    for (size_t i = 0; i < in.inserts.size(); ++i) {
      Result<MaintenanceReport> report = Status::Internal("not run");
      {
        ScopedSpan span("bench.apply_batch", "bench");
        const int64_t call = NowNs();
        report = maintainer.ApplyBatch(in.inserts[i]);
        seq.batch_s.push_back(SecondsSince(call));
      }
      ++seq.attempted;
      if (report.ok()) {
        const MaintenanceReport& r = report.value();
        seq.cells += r.delta_cells;
        seq.sim_makespan_s += r.maintenance_seconds;
        seq.triples_s += r.triple_gen_seconds;
        seq.plan_s += r.planning_seconds;
        seq.exec_s += r.execution_wall_seconds;
        seq.pairs += r.num_pairs;
        seq.triples += r.num_triples;
        seq.bytes_transferred += r.bytes_transferred;
        seq.bytes_joined += r.bytes_joined;
        seq.base_chunks_moved += r.exec.base_chunks_moved;
      } else {
        NoteFailure(&seq, report.status());
      }

      if (!in.deletes.empty()) {
        Result<DeletionStats> deleted = Status::Internal("not run");
        {
          ScopedSpan span("bench.delete_batch", "bench");
          const int64_t call = NowNs();
          deleted = ApplyDeletionBatch(view, in.deletes[i]);
          seq.delete_s.push_back(SecondsSince(call));
        }
        ++seq.attempted;
        if (deleted.ok()) {
          seq.cells += deleted.value().deleted_cells;
          seq.sim_makespan_s += deleted.value().maintenance_seconds;
          seq.retraction_joins += deleted.value().retraction_joins;
        } else {
          NoteFailure(&seq, deleted.status());
        }
      }

      if (serve) {
        {
          ScopedSpan span("bench.publish", "bench");
          const int64_t call = NowNs();
          epochs->Publish({EpochManager::PinView(*view)});
          seq.publish_s.push_back(SecondsSince(call));
        }
        RaiseTo(&run->epochs_live_max,
                static_cast<int64_t>(epochs->epochs_live()));
      }
      if (sys.buffer != nullptr) {
        ScopedSpan span("bench.rebalance", "bench");
        const int64_t call = NowNs();
        sys.buffer->Rebalance();
        seq.rebalance_s.push_back(SecondsSince(call));
      }
    }
    seq.maint_wall_s = SecondsSince(start);
  };
  const size_t queries_before = run->queries.size();
  if (serve) {
    WithOpenLoopReaders(*epochs, query, w, &run->queries,
                        &run->epochs_live_max, maintain);
  } else {
    maintain();
  }
  run->maintaining.store(false);
  Accumulate(MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before),
             &run->maintenance_metrics);
  for (size_t q = queries_before; q < run->queries.size(); ++q) {
    ++seq.attempted;
    if (!run->queries[q].ok) ++seq.failed;
  }
  if (sys.buffer != nullptr) {
    const BufferManager::Stats stats = sys.buffer->GetStats();
    seq.evictions = stats.evictions;
    seq.resident_bytes = stats.resident_bytes;
  }
  seq.retire_lag_max_s = epochs->retirement().max_lag_seconds;
  seq.peak_rss_bytes = PeakRssBytes();

  // Once per run, off every clock: the readers' service time and saturation
  // rate on the last epoch -- the largest view they read -- under the same
  // buffer budget, with maintenance quiesced.
  if (serve && run->calibration_s.empty()) {
    const uint64_t failed_before = seq.failed;
    run->calibration_wall_s = CalibrateQueries(
        *epochs, query, w.readers, &run->calibration_s, &seq.failed);
    seq.attempted += run->calibration_s.size();
    if (seq.failed > failed_before && seq.error.empty()) {
      seq.error = "a calibration query failed";
    }
  }
  std::fprintf(stderr,
               "sequence %" PRIu64 ": set-up %.3f s (materialize %.3f s), "
               "maintain %.3f s, %" PRIu64 " of %" PRIu64 " calls failed\n",
               seed,
               seq.generate_s + seq.ingest_s + seq.materialize_s +
                   seq.buffer_register_s,
               seq.materialize_s, seq.maint_wall_s, seq.failed, seq.attempted);

  // Off the clock: the maintained view must equal recomputation, and the
  // last served epoch must bit-match the gathered view.
  t = NowNs();
  const Result<bool> matches =
      ViewMatchesRecomputation(*view, OracleFor(w.kind), seed);
  seq.view_matches = matches.ok() && matches.value();
  if (!matches.ok() && seq.error.empty()) {
    seq.error = matches.status().ToString();
  }
  if (serve) {
    const Result<SnapshotQueryResult> last = EvaluateSnapshotQuery(
        epochs->OpenSnapshot(), SnapshotQuery{in.view.view_name, {}, {}});
    const Result<SparseArray> truth = view->GatherFinalized();
    seq.served_matches =
        last.ok() && truth.ok() &&
        last.value().epoch_id == in.inserts.size() + 1 &&
        last.value().finalized.ContentEquals(truth.value(), 0.0);
  }
  std::fprintf(stderr, "sequence %" PRIu64 ": verified in %.3f s: %s\n", seed,
               SecondsSince(t),
               seq.view_matches && seq.served_matches ? "ok" : "MISMATCH");

  // Release the epochs' pins, then drop the arrays before the buffer
  // manager detaches: detaching faults every spilled chunk back in.
  epochs.reset();
  for (ChunkStore* store : stores) {
    store->EraseArray(view->array().id());
    store->EraseArray(view->left_base().id());
  }
  return seq;
}

/// JSON string literal for `text` (status messages may hold any byte).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteDoubles(FILE* out, const char* key, const std::vector<double>& v) {
  std::fprintf(out, "\"%s\": [", key);
  for (size_t i = 0; i < v.size(); ++i) {
    std::fprintf(out, "%s%.9g", i == 0 ? "" : ", ", v[i]);
  }
  std::fprintf(out, "]");
}

void WriteSequence(FILE* out, const Sequence& s) {
  std::fprintf(out,
               "{\"seed\": %" PRIu64 ", \"generate_s\": %.9g, \"ingest_s\": "
               "%.9g, \"materialize_s\": %.9g, \"buffer_register_s\": %.9g, "
               "\"maint_wall_s\": %.9g, \"cells\": %" PRIu64
               ", \"sim_makespan_s\": %.17g, ",
               s.seed, s.generate_s, s.ingest_s, s.materialize_s,
               s.buffer_register_s, s.maint_wall_s, s.cells, s.sim_makespan_s);
  WriteDoubles(out, "batch_s", s.batch_s);
  std::fprintf(out, ", ");
  WriteDoubles(out, "delete_s", s.delete_s);
  std::fprintf(out, ", ");
  WriteDoubles(out, "publish_s", s.publish_s);
  std::fprintf(out, ", ");
  WriteDoubles(out, "rebalance_s", s.rebalance_s);
  std::fprintf(
      out,
      ", \"triples_s\": %.9g, \"plan_s\": %.9g, \"exec_s\": %.9g, \"pairs\": "
      "%" PRIu64 ", \"triples\": %" PRIu64 ", \"bytes_transferred\": %" PRIu64
      ", \"bytes_joined\": %" PRIu64 ", \"base_chunks_moved\": %" PRIu64
      ", \"retraction_joins\": %" PRIu64 ", \"attempted\": %" PRIu64
      ", \"failed\": %" PRIu64 ", \"footprint_bytes\": %" PRIu64
      ", \"budget_bytes\": %" PRIu64 ", \"evictions\": %" PRIu64
      ", \"resident_bytes\": %" PRIu64
      ", \"retire_lag_max_s\": %.9g, \"peak_rss_bytes\": %" PRIu64
      ", \"view_matches\": %s, \"served_matches\": %s, \"error\": %s}",
      s.triples_s, s.plan_s, s.exec_s, s.pairs, s.triples, s.bytes_transferred,
      s.bytes_joined, s.base_chunks_moved, s.retraction_joins, s.attempted,
      s.failed, s.footprint_bytes, s.budget_bytes, s.evictions,
      s.resident_bytes, s.retire_lag_max_s, s.peak_rss_bytes,
      s.view_matches ? "true" : "false", s.served_matches ? "true" : "false",
      Quote(s.error).c_str());
}

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  std::string chrome_trace;
  std::string spill_dir = "avm_spill";
};

bool Optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

bool WriteResults(const Options& opt, const std::vector<Sequence>& sequences,
                  const RunState& run, int64_t queue_depth_max) {
  FILE* out = std::fopen(opt.out.c_str(), "w");
  if (out == nullptr) return false;
  const Workload& w = *opt.workload;
  std::fprintf(
      out,
      "{\"provenance\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %.9g, \"trace\": %s, \"build_type\": %s, \"compiler\": "
      "%s, \"optimized\": %s, \"nproc\": %u, \"executor_threads\": %d, "
      "\"reader_threads\": %d, \"sampler_threads\": %d},\n",
      Quote(w.name).c_str(), opt.seed, opt.seconds,
      opt.trace ? "true" : "false", Quote(AVM_PERFBENCH_BUILD_TYPE).c_str(),
      Quote(__VERSION__).c_str(), Optimized() ? "true" : "false",
      std::thread::hardware_concurrency(), w.executor_threads, w.readers,
      opt.trace ? 1 : 0);
  std::fprintf(out,
               "\"config\": {\"batches\": %d, \"reader_hz\": %.9g, "
               "\"budget_divisor\": %d, \"datasets\": %d},\n",
               w.batches, w.reader_hz, w.budget_divisor, w.datasets);
  std::fprintf(out, "\"calibration\": {\"wall_s\": %.9g, ",
               run.calibration_wall_s);
  WriteDoubles(out, "service_s", run.calibration_s);
  std::fprintf(out, "},\n");
  std::fprintf(out, "\"sequences\": [");
  for (size_t i = 0; i < sequences.size(); ++i) {
    std::fprintf(out, "%s\n  ", i == 0 ? "" : ",");
    WriteSequence(out, sequences[i]);
  }
  std::fprintf(out, "],\n\"queries\": [");
  for (size_t i = 0; i < run.queries.size(); ++i) {
    const QuerySample& q = run.queries[i];
    std::fprintf(out, "%s[%" PRId64 ", %" PRId64 ", %" PRId64 ", %d]",
                 i == 0 ? "" : ", ", q.due_ns, q.start_ns, q.end_ns,
                 q.ok ? 1 : 0);
  }
  std::fprintf(out,
               "],\n\"samples\": {\"queue_depth_max\": %" PRId64
               ", \"epochs_live_max\": %" PRId64 "}",
               queue_depth_max, run.epochs_live_max.load());
  if (opt.trace) {
    std::fprintf(out, ",\n\"metrics\": %s",
                 MetricsJson(run.maintenance_metrics).c_str());
    std::fprintf(out, ",\n\"spans\": [");
    bool first = true;
    for (const TraceEvent& e : TraceCollector::Global().Collect()) {
      if (e.tid >= kSimTidBase) continue;  // simulated-clock lanes
      std::fprintf(out, "%s\n  [%s, %s, %d, %" PRId64 ", %" PRId64 "]",
                   first ? "" : ",", Quote(e.name).c_str(),
                   Quote(e.cat).c_str(), e.tid, e.ts_ns, e.dur_ns);
      first = false;
    }
    std::fprintf(out, "]");
  }
  std::fprintf(out, "}\n");
  return std::fclose(out) == 0;
}

int Run(const Options& opt) {
  const Workload& w = *opt.workload;
  RunState run;
  std::atomic<bool> sampling{opt.trace};
  std::atomic<int64_t> queue_depth_max{0};
  std::thread sampler;
  if (opt.trace) {
    EnableTelemetry();
    // The pool's queue depth is a gauge; sample it during maintenance.
    sampler = std::thread([&] {
      while (sampling.load()) {
        if (run.maintaining.load()) {
          RaiseTo(&queue_depth_max,
                  MetricsRegistry::Global().Snapshot().gauge(
                      GaugeId::kPoolQueueDepth));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  // Whole rounds, the floors and the clock: once the floors are met, the run
  // stops at a round boundary when the next round would end further past S
  // than this boundary is short of it. A hard cap keeps a slow build or a
  // regression from running away.
  const int64_t start = NowNs();
  const double cap_s = opt.seconds + 60.0;
  const uint64_t datasets = static_cast<uint64_t>(w.datasets);
  std::vector<Sequence> sequences;
  int64_t round_start = start;
  int status = 0;
  for (uint64_t j = 0;; ++j) {
    const double elapsed = SecondsSince(start);
    if (elapsed >= cap_s) break;
    if (j > 0 && j % datasets == 0) {
      const double round_s = SecondsSince(round_start);
      round_start = NowNs();
      const bool floors_met = j / datasets >= kMinRounds &&
                              run.queries.size() >= w.min_queries;
      if (floors_met && elapsed + round_s / 2 >= opt.seconds) break;
    }
    Rng mix(opt.seed * 0x9E3779B97F4A7C15ULL + j % datasets);
    Result<Sequence> seq = RunSequence(w, mix.Next64(), opt.spill_dir, &run);
    if (!seq.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   seq.status().ToString().c_str());
      status = 1;
      break;
    }
    sequences.push_back(std::move(seq).value());
  }
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  if (status != 0) return status;
  if (opt.trace && !opt.chrome_trace.empty() &&
      !WriteChromeTrace(opt.chrome_trace)) {
    std::fprintf(stderr, "cannot write %s\n", opt.chrome_trace.c_str());
    return 1;
  }
  if (!WriteResults(opt, sequences, run, queue_depth_max.load())) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool known = argc % 2 == 1;
  for (int i = 1; known && i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out = value;
    } else if (flag == "--chrome-trace") {
      opt.chrome_trace = value;
    } else if (flag == "--spill-dir") {
      opt.spill_dir = value;
    } else {
      known = false;
    }
  }
  if (!known || opt.workload == nullptr || !have_seed || opt.seconds <= 0.0 ||
      opt.out.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload ptf25-real|geo-churn|ptf5-serve-spill "
                 "--seed N --seconds S --trace 0|1 --out FILE "
                 "[--chrome-trace FILE] [--spill-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return Run(opt);
}

}  // namespace
}  // namespace avm::perfbench

int main(int argc, char** argv) { return avm::perfbench::Main(argc, argv); }
