#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "array/sparse_array.h"
#include "common/result.h"
#include "maintenance/deletions.h"
#include "maintenance/executor.h"
#include "maintenance/history.h"
#include "maintenance/triple_gen.h"
#include "maintenance/types.h"
#include "serve/epoch_manager.h"
#include "view/materialized_view.h"
#include "view/view_set.h"

namespace avm {

/// The three maintenance strategies compared throughout the paper's
/// evaluation (Section 6.1, "Methodology").
enum class MaintenanceMethod {
  /// Section 4.1: static placement, join at the stored chunk, no
  /// reassignment.
  kBaseline,
  /// Stage 1 only (Algorithm 1): optimized join plan, no reassignment.
  kDifferential,
  /// The full three-stage heuristic (Algorithms 1 + 2 + 3) with the
  /// historical batch window.
  kReassign,
};

std::string_view MaintenanceMethodName(MaintenanceMethod method);

/// Everything measured about one maintained batch — the quantities behind
/// Figures 3, 5, 9 and 10.
struct MaintenanceReport {
  /// Wall-clock seconds of metadata preprocessing (triple generation); part
  /// of every method's optimization time in Figure 5.
  double triple_gen_seconds = 0.0;
  /// Wall-clock seconds of planning on top of triple generation (Algorithm
  /// 1 for differential; + Algorithms 2 and 3 for reassign; 0-ish for
  /// baseline).
  double planning_seconds = 0.0;
  /// Total optimization time (triple generation + planning).
  double optimization_seconds() const {
    return triple_gen_seconds + planning_seconds;
  }
  /// Simulated maintenance makespan of the batch: max over nodes of
  /// max(Δntwk, Δcpu) charged while executing the plan. Independent of the
  /// cluster's host thread count — parallel execution changes wall-clock
  /// only, never the simulated clocks.
  double maintenance_seconds = 0.0;
  /// Real wall-clock seconds spent executing the plan against the cluster
  /// (joins, transfers, merges). This is the quantity host parallelism
  /// (`Cluster` `num_threads` / the benches' --threads knob) improves.
  double execution_wall_seconds = 0.0;
  size_t num_pairs = 0;
  size_t num_triples = 0;
  size_t num_delta_chunks = 0;
  uint64_t delta_cells = 0;
  /// Cells of the batch that overwrote existing coordinates (handled by the
  /// signed value-correction pass, see maintenance/modifications.h).
  uint64_t modified_cells = 0;
  ExecutionStats exec;

  /// Simulated clock deltas over the whole batch window (ingest + execution
  /// + modification corrections), workers 0..N-1 then the coordinator.
  /// Always populated; the byte totals are exact.
  std::vector<NodeActivity> per_node;
  /// Network/CPU byte totals behind `per_node`, summed over all nodes.
  uint64_t bytes_transferred = 0;
  uint64_t bytes_joined = 0;
  /// Registry counter deltas scoped to this batch. Only populated while
  /// telemetry is enabled (`telemetry_collected`); the simulated-clock
  /// fields above do not depend on telemetry.
  bool telemetry_collected = false;
  uint64_t plan_candidates = 0;    // Algorithms 1-3 candidate evaluations
  uint64_t plan_accepts = 0;       // Algorithms 1-3 committed decisions
  uint64_t shape_cache_hits = 0;
  uint64_t shape_cache_misses = 0;
  /// Global shape-cache lookups absorbed by the pass-scoped ShapePrefetch
  /// memo this batch — the proof that the once-redundant per-call-site
  /// lookups are gone. Telemetry-gated like its neighbours.
  uint64_t shape_prefetch_dedup = 0;
  /// Chunk representation conversions during this batch (counter deltas;
  /// telemetry-gated like the fields above).
  uint64_t chunks_densified = 0;
  uint64_t chunks_sparsified = 0;
  /// Physical buffer bytes resident across all cluster stores at batch end,
  /// split by chunk representation (also mirrored to the
  /// store.resident_{sparse,dense}_bytes gauges). Telemetry-gated.
  uint64_t resident_sparse_bytes = 0;
  uint64_t resident_dense_bytes = 0;
  /// Spill-file bytes held by chunks evicted out-of-core at batch end,
  /// across all cluster stores (mirrored to store.spilled_bytes). Zero
  /// unless a BufferManager is attached. Telemetry-gated.
  uint64_t spilled_bytes = 0;
  /// PlanDigest of the executed plan and `maintenance_seconds`: a cheap,
  /// always-on fingerprint that two runs planned the batch identically.
  uint64_t plan_digest = 0;
  /// Epoch id published at this batch's commit; 0 when no EpochManager is
  /// attached (batch-only mode, no concurrent serving).
  uint64_t published_epoch = 0;

  /// Per-view execution breakdown (fragment merge timing/bytes per member):
  /// one entry per member of the maintained view set, so one entry for a
  /// single view.
  const std::vector<ViewExecutionBreakdown>& per_view_breakdown() const {
    return exec.per_view;
  }
};

/// Keeps a view set — or a single materialized view, the one-member set —
/// consistent under cyclic batch updates using a fixed maintenance method.
/// Owns the historical batch window that Algorithm 3 consumes. Typical use:
///
///   ViewMaintainer maintainer(&view, MaintenanceMethod::kReassign, opts);
///   for (const SparseArray& batch : nightly_batches) {
///     AVM_ASSIGN_OR_RETURN(auto report, maintainer.ApplyBatch(batch));
///   }
///
/// Every batch takes one *shared delta pass* over the whole set: it is
/// ingested once, planned once (jointly, under the members' union shape —
/// one transfer of a base chunk amortizes across every view, and the cost
/// model charges shared operands once), and executed once with the K-lane
/// kernel demultiplexing matches into per-view fragments. All members
/// commit as ONE epoch per batch, so snapshot readers never observe a torn
/// view set. At K=1 every stage does exactly the single-view work: the
/// member's own shape, its cached compilation, the single-view kernel.
class ViewMaintainer {
 public:
  /// Maintains every member of `set` (non-empty; borrowed, must outlive
  /// the maintainer).
  ViewMaintainer(ViewSet* set, MaintenanceMethod method,
                 PlannerOptions options = PlannerOptions());
  /// Maintains `view` alone, as a one-member set the maintainer owns.
  ViewMaintainer(MaterializedView* view, MaintenanceMethod method,
                 PlannerOptions options = PlannerOptions());

  MaintenanceMethod method() const { return method_; }
  const PlannerOptions& options() const { return options_; }
  const BatchHistory& history() const { return history_; }
  ViewSet* set() const { return set_; }

  /// Integrates one batch of inserts/overwrites into the base array(s) and
  /// brings every member view up to date. `left_delta_cells` updates the
  /// views' left (or only) base array; `right_delta_cells`, if given, the
  /// right array of two-array views. The report's `per_view_breakdown()`
  /// carries per-member merge timing and bytes.
  Result<MaintenanceReport> ApplyBatch(
      const SparseArray& left_delta_cells,
      const SparseArray* right_delta_cells = nullptr);

  /// Deletes a batch of existing cells from the shared base and retracts
  /// their contributions from every member in one shared pass (see
  /// ApplyDeletionBatch). Publishes an epoch if a manager is attached.
  Result<DeletionStats> ApplyDeletions(const SparseArray& deleted_cells);

  /// Turns batch commits into epoch publishes carrying ALL members: after
  /// every successful ApplyBatch/ApplyDeletions the maintainer pins each
  /// member's chunks and swaps one fresh epoch into `manager`, so snapshot
  /// readers flip from the pre-batch set version to the post-batch one
  /// atomically. Pass nullptr to detach. The manager must outlive the
  /// maintainer (or the detach). Callers that publish several sets as one
  /// epoch (AqlSession) publish through the manager themselves instead of
  /// attaching per-set maintainers.
  void AttachEpochManager(EpochManager* manager) { epoch_manager_ = manager; }
  EpochManager* epoch_manager() const { return epoch_manager_; }

 private:
  /// Pins every member and publishes one epoch (0 without a manager).
  uint64_t PublishSet();

  std::unique_ptr<ViewSet> owned_set_;  // the one-member set of a view
  ViewSet* set_;
  MaintenanceMethod method_;
  PlannerOptions options_;
  BatchHistory history_;
  TripleGenCache footprint_cache_;
  uint64_t batch_counter_ = 0;
  EpochManager* epoch_manager_ = nullptr;
};

}  // namespace avm

