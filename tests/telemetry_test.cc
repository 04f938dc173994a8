#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tests/json_util.h"
#include "tests/test_util.h"

namespace avm {
namespace {

using testing_util::JsonValue;
using testing_util::ParseJson;

/// Disabled mode must record and allocate nothing. Shards and trace
/// buffers, once allocated, stay registered forever by design, and counters
/// only grow, so the test compares against the state it finds at its start
/// rather than against zero: it holds whatever ran earlier in the process.
TEST(TelemetryTest, DisabledModeRecordsAndAllocatesNothing) {
  ASSERT_FALSE(TelemetryEnabled());
  const size_t shards_before = MetricsRegistry::Global().NumShardsForTesting();
  const size_t buffers_before =
      TraceCollector::Global().NumBuffersForTesting();
  const size_t events_before = TraceCollector::Global().Collect().size();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  CountAdd(CounterId::kJoinProbes, 17);
  GaugeAdd(GaugeId::kPoolQueueDepth, 3);
  GaugeSet(GaugeId::kStoreResidentBytes, 99);
  HistogramRecord(HistogramId::kPoolTaskSeconds, 0.25);
  {
    ScopedSpan span("telemetry.test.disabled", "test");
    span.AddArg("k", 1);
  }
  EXPECT_EQ(MetricsRegistry::Global().NumShardsForTesting(), shards_before);
  EXPECT_EQ(TraceCollector::Global().NumBuffersForTesting(), buffers_before);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot delta = snapshot.DeltaSince(before);
  EXPECT_EQ(delta.counter(CounterId::kJoinProbes), 0u);
  // Gauges are instantaneous: DeltaSince keeps the current value.
  EXPECT_EQ(snapshot.gauge(GaugeId::kPoolQueueDepth),
            before.gauge(GaugeId::kPoolQueueDepth));
  EXPECT_EQ(snapshot.gauge(GaugeId::kStoreResidentBytes),
            before.gauge(GaugeId::kStoreResidentBytes));
  EXPECT_EQ(delta.histogram_total(HistogramId::kPoolTaskSeconds), 0u);
  EXPECT_EQ(TraceCollector::Global().Collect().size(), events_before);

  // A span alive across EnableTelemetry stays inert: enabling must not
  // retroactively produce a half-open event.
  {
    ScopedSpan span("telemetry.test.straddle", "test");
    EnableTelemetry();
  }
  EXPECT_EQ(TraceCollector::Global().Collect().size(), events_before);
  DisableTelemetry();
}

TEST(TelemetryTest, CountersMergeExactlyAcrossThreads) {
  EnableTelemetry();
  MetricsRegistry::Global().ResetForTesting();

  constexpr size_t kItems = 10000;
  uint64_t expected = 0;
  for (size_t i = 0; i < kItems; ++i) expected += i % 7 + 1;

  ThreadPool pool(8);
  pool.ParallelFor(kItems, [](size_t i) {
    CountAdd(CounterId::kJoinProbes, i % 7 + 1);
    CountAdd(CounterId::kJoinScannedCells);
  });

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter(CounterId::kJoinProbes), expected);
  EXPECT_EQ(snapshot.counter(CounterId::kJoinScannedCells), kItems);
  // One shard per recording thread, at most (pool threads may or may not all
  // have claimed work; the caller drains too).
  EXPECT_GE(MetricsRegistry::Global().NumShardsForTesting(), 1u);
  EXPECT_LE(MetricsRegistry::Global().NumShardsForTesting(), 8u);
  DisableTelemetry();
}

TEST(TelemetryTest, GaugesHistogramsAndSnapshotDeltas) {
  EnableTelemetry();
  MetricsRegistry::Global().ResetForTesting();

  GaugeAdd(GaugeId::kPoolQueueDepth, 5);
  GaugeAdd(GaugeId::kPoolQueueDepth, -2);
  GaugeSet(GaugeId::kStoreResidentChunks, 42);
  HistogramRecord(HistogramId::kPoolTaskSeconds, 1e-10);  // sub-ns bucket
  HistogramRecord(HistogramId::kPoolTaskSeconds, 1e-3);
  HistogramRecord(HistogramId::kPoolTaskSeconds, 3600.0);  // overflow bucket
  CountAdd(CounterId::kPoolTasksRun, 3);

  const MetricsSnapshot base = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(base.gauge(GaugeId::kPoolQueueDepth), 3);
  EXPECT_EQ(base.gauge(GaugeId::kStoreResidentChunks), 42);
  EXPECT_EQ(base.histogram_total(HistogramId::kPoolTaskSeconds), 3u);

  // Bucket upper bounds are positive and strictly increasing.
  for (size_t b = 1; b < kNumHistogramBuckets; ++b) {
    EXPECT_GT(HistogramBucketUpperSeconds(b),
              HistogramBucketUpperSeconds(b - 1));
  }

  HistogramRecord(HistogramId::kPoolTaskSeconds, 2e-3);
  CountAdd(CounterId::kPoolTasksRun, 2);
  GaugeAdd(GaugeId::kPoolQueueDepth, 4);

  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(base);
  // Counters and histograms are windowed; gauges stay instantaneous.
  EXPECT_EQ(delta.counter(CounterId::kPoolTasksRun), 2u);
  EXPECT_EQ(delta.histogram_total(HistogramId::kPoolTaskSeconds), 1u);
  EXPECT_EQ(delta.gauge(GaugeId::kPoolQueueDepth), 7);
  DisableTelemetry();
}

TEST(TelemetryTest, MetricsJsonIsValidAndComplete) {
  EnableTelemetry();
  MetricsRegistry::Global().ResetForTesting();
  CountAdd(CounterId::kPlanStage1Candidates, 7);
  CountAdd(CounterId::kShapeCacheHits, 2);
  GaugeSet(GaugeId::kStoreResidentBytes, 1024);
  HistogramRecord(HistogramId::kBatchApplySeconds, 0.5);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  DisableTelemetry();

  const std::string json = MetricsJson(snapshot);
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // Every counter id serializes under its dotted name, including zeros.
  EXPECT_EQ(counters->object.size(), kNumCounters);
  const JsonValue* stage1 = counters->Find("plan.stage1.candidates");
  ASSERT_NE(stage1, nullptr);
  EXPECT_EQ(stage1->number, 7.0);
  const JsonValue* hits = counters->Find("shape_cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->number, 2.0);

  const JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->object.size(), kNumGauges);
  const JsonValue* resident = gauges->Find("store.resident_bytes");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->number, 1024.0);

  const JsonValue* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_EQ(histograms->object.size(), kNumHistograms);
  const JsonValue* batch_hist = histograms->Find("maint.batch_apply_seconds");
  ASSERT_NE(batch_hist, nullptr);
  const JsonValue* total = batch_hist->Find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->number, 1.0);
  const JsonValue* buckets = batch_hist->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Sparse export: one populated bucket, as an [upper_seconds, count] pair
  // bracketing the recorded 0.5 s sample.
  ASSERT_EQ(buckets->array.size(), 1u);
  ASSERT_EQ(buckets->array[0].array.size(), 2u);
  EXPECT_GE(buckets->array[0].array[0].number, 0.5);
  EXPECT_EQ(buckets->array[0].array[1].number, 1.0);
}

TEST(TraceTest, SpanNestingYieldsContainedEventsOnOneTimeline) {
  EnableTelemetry();
  TraceCollector::Global().ResetForTesting();
  {
    ScopedSpan outer("telemetry.test.outer", "test");
    outer.AddArg("level", 0);
    {
      ScopedSpan inner("telemetry.test.inner", "test");
      inner.AddArg("level", 1);
      ScopedSpan innermost("telemetry.test.innermost", "test");
      innermost.AddArg("level", 2);
    }
  }
  DisableTelemetry();

  const std::vector<TraceEvent> events = TraceCollector::Global().Collect();
  ASSERT_EQ(events.size(), 3u);
  auto find = [&](const char* name) -> const TraceEvent* {
    for (const TraceEvent& e : events) {
      if (std::strcmp(e.name, name) == 0) return &e;
    }
    return nullptr;
  };
  const TraceEvent* outer = find("telemetry.test.outer");
  const TraceEvent* inner = find("telemetry.test.inner");
  const TraceEvent* innermost = find("telemetry.test.innermost");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(innermost, nullptr);
  // All on the calling thread's timeline, properly nested in time.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->tid, innermost->tid);
  EXPECT_GT(outer->tid, 0);
  EXPECT_LE(outer->ts_ns, inner->ts_ns);
  EXPECT_GE(outer->ts_ns + outer->dur_ns, inner->ts_ns + inner->dur_ns);
  EXPECT_LE(inner->ts_ns, innermost->ts_ns);
  EXPECT_GE(inner->ts_ns + inner->dur_ns,
            innermost->ts_ns + innermost->dur_ns);
  ASSERT_EQ(inner->num_args, 1u);
  EXPECT_STREQ(inner->args[0].key, "level");
  EXPECT_EQ(inner->args[0].value, 1);
}

TEST(TraceTest, ChromeTraceJsonIsValidIncludingEscapes) {
  EnableTelemetry();
  TraceCollector::Global().ResetForTesting();
  {
    ScopedSpan span("telemetry.test.json", "test");
    span.AddArg("bytes", 12345);
  }
  // Adversarial strings: the exporter must escape quotes, backslashes, and
  // control characters (literals with static storage, per the span rules).
  static const char kWeirdName[] = "we\"ird\\name\ttab\nline";
  TraceEvent weird;
  weird.name = kWeirdName;
  weird.cat = "test";
  weird.ts_ns = 1500;
  weird.dur_ns = 2500;
  weird.tid = kSimTidBase + 7;
  TraceCollector::Global().Emit(weird);
  DisableTelemetry();

  const std::string json = ChromeTraceJson();
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const JsonValue* unit = parsed->Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  bool saw_span = false;
  bool saw_weird = false;
  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    for (const char* key : {"name", "cat", "ph", "pid", "tid", "ts", "dur"}) {
      ASSERT_NE(event.Find(key), nullptr) << "missing " << key;
    }
    EXPECT_EQ(event.Find("ph")->string, "X");
    EXPECT_EQ(event.Find("pid")->number, 1.0);
    if (event.Find("name")->string == "telemetry.test.json") {
      saw_span = true;
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->Find("bytes"), nullptr);
      EXPECT_EQ(args->Find("bytes")->number, 12345.0);
    }
    if (event.Find("name")->string == kWeirdName) {
      saw_weird = true;
      // ts/dur are microseconds in Chrome trace format.
      EXPECT_DOUBLE_EQ(event.Find("ts")->number, 1.5);
      EXPECT_DOUBLE_EQ(event.Find("dur")->number, 2.5);
      EXPECT_EQ(event.Find("tid")->number,
                static_cast<double>(kSimTidBase + 7));
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_weird);
}

TEST(TraceTest, RingOverwriteKeepsNewestAndCountsDrops) {
  EnableTelemetry();
  TraceCollector::Global().ResetForTesting();
  MetricsRegistry::Global().ResetForTesting();

  constexpr size_t kExtra = 123;
  for (size_t i = 0; i < kTraceBufferCapacity + kExtra; ++i) {
    TraceEvent e;
    e.name = "telemetry.test.flood";
    e.cat = "test";
    e.ts_ns = static_cast<int64_t>(i);
    e.dur_ns = 1;
    TraceCollector::Global().Emit(e);
  }
  const std::vector<TraceEvent> events = TraceCollector::Global().Collect();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  DisableTelemetry();

  ASSERT_EQ(events.size(), kTraceBufferCapacity);
  EXPECT_EQ(snapshot.counter(CounterId::kTraceEventsDropped), kExtra);
  // The survivors are exactly the newest events.
  int64_t min_ts = events[0].ts_ns;
  for (const TraceEvent& e : events) min_ts = std::min(min_ts, e.ts_ns);
  EXPECT_EQ(min_ts, static_cast<int64_t>(kExtra));
}

/// End-to-end acceptance check: run real maintenance with telemetry on and
/// reconcile the simulated-clock trace spans against (a) the executor's
/// per-node activity report, (b) the registry counters, and (c) the
/// cluster's own byte clocks — all exact integer equalities.
TEST(TelemetryEndToEndTest, MaintenanceTraceMatchesSimulatedClocks) {
  ExperimentScale scale;
  scale.num_workers = 4;
  scale.num_threads = 2;  // exercise the parallel executor under telemetry
  scale.num_batches = 3;
  scale.geo.seed_pois = 500;
  scale.geo.batch_frac = 0.02;

  EnableTelemetry();
  TraceCollector::Global().ResetForTesting();
  MetricsRegistry::Global().ResetForTesting();

  ASSERT_OK_AND_ASSIGN(
      PreparedExperiment experiment,
      PrepareExperiment(DatasetKind::kGeo, BatchRegime::kRandom, scale));
  ASSERT_OK_AND_ASSIGN(
      BatchSeries series,
      RunMaintenanceSeries(&experiment, MaintenanceMethod::kReassign,
                           PlannerOptions()));
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::vector<TraceEvent> events = TraceCollector::Global().Collect();
  DisableTelemetry();

  ASSERT_EQ(series.reports.size(), 3u);
  const size_t num_nodes = static_cast<size_t>(scale.num_workers) + 1;

  // Executor-window per-node byte totals from the reports.
  std::vector<uint64_t> exec_ntwk(num_nodes, 0), exec_cpu(num_nodes, 0);
  uint64_t batch_ntwk_total = 0;
  for (const MaintenanceReport& report : series.reports) {
    EXPECT_TRUE(report.telemetry_collected);
    EXPECT_GT(report.plan_candidates, 0u);
    EXPECT_GT(report.plan_accepts, 0u);
    ASSERT_EQ(report.exec.per_node.size(), num_nodes);
    ASSERT_EQ(report.per_node.size(), num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) {
      exec_ntwk[i] += report.exec.per_node[i].ntwk_bytes;
      exec_cpu[i] += report.exec.per_node[i].cpu_bytes;
      // The executor window is contained in the whole-batch window.
      EXPECT_LE(report.exec.per_node[i].ntwk_bytes,
                report.per_node[i].ntwk_bytes);
      EXPECT_LE(report.exec.per_node[i].cpu_bytes,
                report.per_node[i].cpu_bytes);
    }
    batch_ntwk_total += report.bytes_transferred;
  }

  // (a) Per-node sim.ntwk / sim.cpu span bytes match the reports exactly.
  std::vector<uint64_t> span_ntwk(num_nodes, 0), span_cpu(num_nodes, 0);
  size_t batch_spans = 0;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "maint.batch") == 0) ++batch_spans;
    const bool is_ntwk = std::strcmp(e.name, "sim.ntwk") == 0;
    const bool is_cpu = std::strcmp(e.name, "sim.cpu") == 0;
    if (!is_ntwk && !is_cpu) continue;
    EXPECT_STREQ(e.cat, "sim");
    ASSERT_GE(e.tid, kSimTidBase);
    const size_t node = static_cast<size_t>(e.tid - kSimTidBase) / 2;
    ASSERT_LT(node, num_nodes);
    ASSERT_EQ(e.num_args, 2u);
    EXPECT_STREQ(e.args[0].key, "node");
    ASSERT_STREQ(e.args[1].key, "bytes");
    (is_ntwk ? span_ntwk : span_cpu)[node] +=
        static_cast<uint64_t>(e.args[1].value);
  }
  EXPECT_EQ(batch_spans, series.reports.size());
  uint64_t sim_ntwk_total = 0, sim_cpu_total = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    EXPECT_EQ(span_ntwk[i], exec_ntwk[i]) << "node " << i;
    EXPECT_EQ(span_cpu[i], exec_cpu[i]) << "node " << i;
    sim_ntwk_total += span_ntwk[i];
    sim_cpu_total += span_cpu[i];
  }
  EXPECT_GT(sim_ntwk_total + sim_cpu_total, 0u);
  // The coordinator never joins.
  EXPECT_EQ(span_cpu[num_nodes - 1], 0u);

  // (b) Registry counters carry the same totals.
  EXPECT_EQ(snapshot.counter(CounterId::kExecBytesTransferred),
            sim_ntwk_total);
  EXPECT_EQ(snapshot.counter(CounterId::kExecBytesJoined), sim_cpu_total);
  EXPECT_EQ(snapshot.counter(CounterId::kBatchesMaintained),
            series.reports.size());
  EXPECT_GT(snapshot.counter(CounterId::kPoolTasksRun), 0u);
  EXPECT_EQ(snapshot.histogram_total(HistogramId::kBatchApplySeconds),
            series.reports.size());

  // (c) The cluster's own byte clocks (reset at prepare time) account for
  // every batch-window byte, and the batch windows cover the sim spans.
  const Cluster& cluster = *experiment.cluster;
  uint64_t clock_ntwk_total = cluster.clock(kCoordinatorNode).ntwk_bytes;
  for (NodeId n = 0; n < scale.num_workers; ++n) {
    clock_ntwk_total += cluster.clock(n).ntwk_bytes;
  }
  EXPECT_EQ(clock_ntwk_total, batch_ntwk_total);
  EXPECT_GE(batch_ntwk_total, sim_ntwk_total);

  // And the whole collected trace exports as valid Chrome JSON.
  const auto parsed = ParseJson(ChromeTraceJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_GE(parsed->Find("traceEvents")->array.size(), events.size());
}

}  // namespace
}  // namespace avm
