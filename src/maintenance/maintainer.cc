#include "maintenance/maintainer.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "join/compiled_shape.h"
#include "maintenance/array_reassigner.h"
#include "maintenance/baseline_planner.h"
#include "maintenance/differential_planner.h"
#include "maintenance/modifications.h"
#include "maintenance/plan_validator.h"
#include "maintenance/triple_gen.h"
#include "maintenance/view_reassigner.h"
#include "storage/chunk_store.h"
#include "telemetry/metrics.h"
#include "telemetry/stopwatch.h"
#include "telemetry/trace.h"

namespace avm {

namespace {

/// Registers a transient delta array (chunks at the coordinator) holding the
/// batch's cells.
Result<DistributedArray> IngestDelta(const SparseArray& cells,
                                     const DistributedArray& base,
                                     const std::string& name, Catalog* catalog,
                                     Cluster* cluster) {
  ArraySchema schema(name, base.schema().dims(), base.schema().attrs());
  AVM_ASSIGN_OR_RETURN(
      DistributedArray delta,
      DistributedArray::Create(std::move(schema), MakeRoundRobinPlacement(),
                               catalog, cluster));
  Status status = Status::OK();
  cells.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    status = delta.PutChunk(id, chunk, kCoordinatorNode);
  });
  AVM_RETURN_IF_ERROR(status);
  return delta;
}

}  // namespace

std::string_view MaintenanceMethodName(MaintenanceMethod method) {
  switch (method) {
    case MaintenanceMethod::kBaseline:
      return "baseline";
    case MaintenanceMethod::kDifferential:
      return "differential";
    case MaintenanceMethod::kReassign:
      return "reassign";
  }
  return "?";
}

ViewMaintainer::ViewMaintainer(ViewSet* set, MaintenanceMethod method,
                               PlannerOptions options)
    : set_(set),
      method_(method),
      options_(options),
      history_(options.history_window) {
  AVM_CHECK(set != nullptr && !set->empty());
}

ViewMaintainer::ViewMaintainer(MaterializedView* view,
                               MaintenanceMethod method,
                               PlannerOptions options)
    : owned_set_(std::make_unique<ViewSet>(view)),
      set_(owned_set_.get()),
      method_(method),
      options_(options),
      history_(options.history_window) {}

uint64_t ViewMaintainer::PublishSet() {
  if (epoch_manager_ == nullptr) return 0;
  std::vector<ViewPin> pins;
  pins.reserve(set_->size());
  for (const MaterializedView* member : set_->views()) {
    pins.push_back(EpochManager::PinView(*member));
  }
  return epoch_manager_->Publish(std::move(pins));
}

Result<MaintenanceReport> ViewMaintainer::ApplyBatch(
    const SparseArray& left_delta_cells,
    const SparseArray* right_delta_cells) {
  MaterializedView* primary = set_->primary();
  Catalog* catalog = primary->array().catalog();
  Cluster* cluster = primary->array().cluster();
  const int num_workers = cluster->num_workers();
  const std::string tag = "__delta" + std::to_string(batch_counter_++);
  // One pass-scoped shape memo serves every compile site of this batch
  // (executor prefetch loop, modification corrections); repeats after the
  // first lookup per shape stay off the global cache lock.
  ShapePrefetch prefetch;

  // The whole-batch telemetry window: simulated clocks are delta'd against
  // this snapshot, registry counters against `metrics_before`.
  const ClusterClockSnapshot batch_entry = ClusterClockSnapshot::Take(*cluster);
  const bool telemetry = TelemetryEnabled();
  MetricsSnapshot metrics_before;
  if (telemetry) metrics_before = MetricsRegistry::Global().Snapshot();
  Stopwatch batch_clock;
  ScopedSpan batch_span("maint.batch", "maint");
  batch_span.AddArg("batch", static_cast<int64_t>(batch_counter_ - 1));
  batch_span.AddArg("views", static_cast<int64_t>(set_->size()));

  MaintenanceReport report;
  report.delta_cells = left_delta_cells.NumCells() +
                       (right_delta_cells != nullptr
                            ? right_delta_cells->NumCells()
                            : 0);

  // Split the raw batches into pure inserts and overwrites of existing
  // cells — each base once for all K members; the overwrites take the
  // value-correction path after the insert-side maintenance (see
  // maintenance/modifications.h).
  std::optional<ScopedSpan> split_span(std::in_place, "maint.split", "maint");
  SparseArray left_ins(primary->left_base().schema());
  SparseArray lmod_old(primary->left_base().schema());
  SparseArray lmod_new(primary->left_base().schema());
  AVM_RETURN_IF_ERROR(SplitInsertsAndModifications(primary->left_base(),
                                                   left_delta_cells, &left_ins,
                                                   &lmod_old, &lmod_new)
                          .status());
  SparseArray right_ins(primary->right_base().schema());
  SparseArray rmod_old(primary->right_base().schema());
  SparseArray rmod_new(primary->right_base().schema());
  if (right_delta_cells != nullptr) {
    AVM_RETURN_IF_ERROR(
        SplitInsertsAndModifications(primary->right_base(),
                                     *right_delta_cells, &right_ins,
                                     &rmod_old, &rmod_new)
            .status());
  }
  report.modified_cells = lmod_new.NumCells() + rmod_new.NumCells();
  split_span.reset();

  // Ingest the insert sides at the coordinator as transient delta arrays
  // shared by every member.
  std::optional<ScopedSpan> ingest_span(std::in_place, "maint.ingest",
                                        "maint");
  AVM_ASSIGN_OR_RETURN(
      DistributedArray left_delta,
      IngestDelta(left_ins, primary->left_base(),
                  primary->definition().left_array + tag, catalog, cluster));
  std::optional<DistributedArray> right_delta;
  if (right_delta_cells != nullptr) {
    AVM_ASSIGN_OR_RETURN(
        DistributedArray rd,
        IngestDelta(right_ins, primary->right_base(),
                    primary->definition().right_array + tag, catalog,
                    cluster));
    right_delta = std::move(rd);
  }
  DistributedArray* right_delta_ptr =
      right_delta.has_value() ? &*right_delta : nullptr;
  report.num_delta_chunks =
      left_delta.NumChunks() +
      (right_delta.has_value() ? right_delta->NumChunks() : 0);
  ingest_span.reset();

  // Metadata preprocessing: the update triples U_0, jointly under the
  // members' union shape.
  Stopwatch triple_clock;
  TripleSet triples;
  {
    ScopedSpan triple_span("plan.triples", "plan");
    AVM_ASSIGN_OR_RETURN(TripleSet triples_tmp,
                         GenerateTriples(*set_, &left_delta, right_delta_ptr,
                                         &footprint_cache_));
    triples = std::move(triples_tmp);
    triple_span.AddArg("pairs", static_cast<int64_t>(triples.pairs.size()));
  }
  report.triple_gen_seconds = triple_clock.ElapsedSeconds();
  report.num_pairs = triples.pairs.size();
  report.num_triples = triples.num_triples();
  if constexpr (kDebugChecksEnabled) {
    ValidateTripleSet(triples, num_workers);
  }

  // Plan JOINTLY: the triples already price each shared base-chunk transfer
  // once and each pair's CPU once (view bytes sum over members), so the
  // planners optimize the whole set's makespan as-is. In Debug/test builds
  // every planner stage is followed by the structural validator —
  // Algorithms 1-3 each preserve the plan contract, so a violation
  // pinpoints the stage that broke it.
  Stopwatch plan_clock;
  MaintenancePlan plan;
  const CostModel* cost = &cluster->cost_model();
  if (method_ == MaintenanceMethod::kBaseline) {
    ScopedSpan stage_span("plan.baseline", "plan");
    AVM_ASSIGN_OR_RETURN(plan, PlanBaseline(*primary, triples, num_workers));
  } else {
    std::optional<DifferentialPlanResult> stage1;
    {
      ScopedSpan stage_span("plan.stage1", "plan");
      AVM_ASSIGN_OR_RETURN(
          DifferentialPlanResult result,
          PlanDifferentialView(*primary, triples, num_workers, *cost,
                               options_));
      stage1 = std::move(result);
    }
    plan = std::move(stage1->plan);
    if (method_ == MaintenanceMethod::kReassign) {
      if constexpr (kDebugChecksEnabled) {
        ValidateMaintenancePlan(plan, triples, num_workers, cost);
      }
      {
        ScopedSpan stage_span("plan.stage2", "plan");
        AVM_RETURN_IF_ERROR(ReassignViewChunks(triples, num_workers, *cost,
                                               options_, &stage1->tracker,
                                               &plan));
      }
      if constexpr (kDebugChecksEnabled) {
        ValidateMaintenancePlan(plan, triples, num_workers, cost);
      }
      ScopedSpan stage_span("plan.stage3", "plan");
      AVM_RETURN_IF_ERROR(ReassignArrayChunks(*primary, triples, history_,
                                              num_workers, options_, *cost,
                                              stage1->replicas, &plan));
    }
  }
  if constexpr (kDebugChecksEnabled) {
    ValidateMaintenancePlan(plan, triples, num_workers, cost);
  }
  report.planning_seconds = plan_clock.ElapsedSeconds();

  // Execute — one shared delta pass folding into all K views — and measure
  // the batch's simulated makespan plus the real wall-clock the (possibly
  // multi-threaded) execution took.
  const ClusterClockSnapshot before = ClusterClockSnapshot::Take(*cluster);
  Stopwatch exec_clock;
  auto exec = ExecuteMaintenancePlan(plan, triples, set_, &left_delta,
                                     right_delta_ptr, &prefetch);
  if (!exec.ok()) return exec.status();
  report.execution_wall_seconds = exec_clock.ElapsedSeconds();
  report.exec = exec.value();

  // Value corrections for overwritten cells (after the insert merge, so
  // fresh cells are corrected too), per member. Still inside the measured
  // window. Looping is correct here — unlike deletions, a correction pass
  // reads only which base cells exist, never their values, and the final
  // upserts are idempotent.
  std::optional<ScopedSpan> mods_span(std::in_place, "maint.modifications",
                                      "maint");
  mods_span->AddArg("cells", static_cast<int64_t>(report.modified_cells));
  const bool self_join = primary->definition().IsSelfJoin();
  for (MaterializedView* member : set_->views()) {
    if (lmod_new.NumCells() > 0) {
      if (self_join) {
        AVM_RETURN_IF_ERROR(
            ApplyRightSideModifications(member, lmod_old, lmod_new, &prefetch)
                .status());
      } else {
        AVM_RETURN_IF_ERROR(ApplyLeftSideModifications(member, lmod_new));
      }
    }
    if (rmod_new.NumCells() > 0) {
      AVM_RETURN_IF_ERROR(
          ApplyRightSideModifications(member, rmod_old, rmod_new, &prefetch)
              .status());
    }
  }
  mods_span.reset();
  report.maintenance_seconds = before.MakespanSince(*cluster);
  report.plan_digest =
      PlanDigest(plan, triples, report.maintenance_seconds);

  // Record the batch for future array reassignment and drop the transient
  // delta arrays.
  history_.Push(MakeHistoryBatch(triples));
  catalog->UnregisterArray(left_delta.id());
  if (right_delta.has_value()) catalog->UnregisterArray(right_delta->id());

  // Batch commit: ONE epoch carrying every member, so concurrent snapshot
  // readers flip from the pre-batch set to the post-batch set atomically.
  // Readers pinning the pre-batch epoch keep their handles (the mutations
  // above COW'd around them) until their snapshots drop.
  report.published_epoch = PublishSet();

  // Per-batch activity breakdown: simulated per-node clock deltas over the
  // whole batch window (always; exact bytes), plus registry counter deltas
  // when telemetry is on.
  report.per_node = batch_entry.ActivitySince(*cluster);
  for (const NodeActivity& a : report.per_node) {
    report.bytes_transferred += a.ntwk_bytes;
    report.bytes_joined += a.cpu_bytes;
  }
  if (telemetry) {
    const MetricsSnapshot delta =
        MetricsRegistry::Global().Snapshot().DeltaSince(metrics_before);
    report.telemetry_collected = true;
    report.plan_candidates = delta.counter(CounterId::kPlanStage1Candidates) +
                             delta.counter(CounterId::kPlanStage2Candidates) +
                             delta.counter(CounterId::kPlanStage3Candidates);
    report.plan_accepts = delta.counter(CounterId::kPlanStage1Accepts) +
                          delta.counter(CounterId::kPlanStage2Accepts) +
                          delta.counter(CounterId::kPlanStage3Accepts);
    report.shape_cache_hits = delta.counter(CounterId::kShapeCacheHits);
    report.shape_cache_misses = delta.counter(CounterId::kShapeCacheMisses);
    report.shape_prefetch_dedup =
        delta.counter(CounterId::kShapeCachePrefetchDedup);
    report.chunks_densified = delta.counter(CounterId::kChunksDensified);
    report.chunks_sparsified = delta.counter(CounterId::kChunksSparsified);
    // Post-batch physical residency by representation, across every node's
    // store (workers + coordinator). Scanned here — once per batch — rather
    // than delta-tracked at every mutation site.
    ChunkStore::FormatResidency residency;
    for (NodeId n = kCoordinatorNode; n < cluster->num_workers(); ++n) {
      const ChunkStore::FormatResidency r =
          cluster->store(n).ResidencyByFormat();
      residency.sparse_bytes += r.sparse_bytes;
      residency.dense_bytes += r.dense_bytes;
      residency.spilled_bytes += r.spilled_bytes;
    }
    report.resident_sparse_bytes = residency.sparse_bytes;
    report.resident_dense_bytes = residency.dense_bytes;
    report.spilled_bytes = residency.spilled_bytes;
    GaugeSet(GaugeId::kStoreSparseBytes,
             static_cast<int64_t>(residency.sparse_bytes));
    GaugeSet(GaugeId::kStoreDenseBytes,
             static_cast<int64_t>(residency.dense_bytes));
    CountAdd(CounterId::kBatchesMaintained);
    HistogramRecord(HistogramId::kBatchApplySeconds,
                    batch_clock.ElapsedSeconds());
  }

  return report;
}

Result<DeletionStats> ViewMaintainer::ApplyDeletions(
    const SparseArray& deleted_cells) {
  ShapePrefetch prefetch;
  AVM_ASSIGN_OR_RETURN(DeletionStats stats,
                       ApplyDeletionBatch(set_, deleted_cells, &prefetch));
  PublishSet();
  return stats;
}

}  // namespace avm
