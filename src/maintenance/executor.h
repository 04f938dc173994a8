#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/distributed_array.h"
#include "common/result.h"
#include "maintenance/types.h"
#include "view/materialized_view.h"
#include "view/view_set.h"

namespace avm {

class ShapePrefetch;

/// Per-member breakdown of one execution: how much of the shared pass's
/// output landed in each view of the set, and what its merge cost.
struct ViewExecutionBreakdown {
  std::string view_name;
  uint64_t fragments_merged = 0;   // fragments applied to this view
  uint64_t fragment_bytes = 0;     // logical bytes of those fragments
  uint64_t view_chunks_touched = 0;  // this view's chunks relocated
  double merge_wall_seconds = 0.0;   // wall-clock of this view's merges
};

/// Counters from one plan execution.
struct ExecutionStats {
  uint64_t joins_executed = 0;      // kernel directions run
  uint64_t fragments_merged = 0;    // differential-view fragments applied
  uint64_t view_chunks_touched = 0; // view chunks merged into or relocated
  uint64_t delta_chunks_merged = 0; // delta chunks folded into the base
  uint64_t base_chunks_moved = 0;   // stage-3 reassignments applied
  /// Simulated clock deltas over this execution, workers 0..N-1 then the
  /// coordinator. The byte totals are exact, so telemetry consumers (and
  /// tests) can reconcile trace spans against MakespanTracker charges.
  std::vector<NodeActivity> per_node;
  /// One entry per view-set member (lane order); one entry for a single
  /// view.
  std::vector<ViewExecutionBreakdown> per_view;
};

/// Executes one jointly planned maintenance batch for real against the
/// cluster, for every member of `set` in a single shared delta pass:
/// performs the planned transfers (chunks are copied between node stores
/// and senders' network clocks charged), runs every join pair at its
/// assigned node, ships and merges the differential-view fragments into each
/// view chunk's (possibly new) home, folds the delta chunks into the base
/// arrays, applies the stage-3 storage redistribution, and finally drops
/// all non-primary replicas. The plan is expressed against the shared base
/// arrays and the primary's view-chunk geometry, so transfers, delta folds
/// and cleanup run once; each join pair runs the K-lane kernel, charging its
/// CPU cost ONCE for every view — the amortization the joint plan priced
/// in — while demultiplexing matches into per-view fragments; view
/// relocations and fragment merges apply to every member's array. A single
/// view is the one-member set: its pairs run the single-view kernel, and
/// `ExecutionStats::per_view` has one entry.
///
/// The executor validates the plan as it goes: a join whose operands the
/// plan failed to co-locate, a reference to a delta that was not supplied,
/// or a node id outside the cluster is an Internal error, not a silent
/// fallback or a crash — plans produced by the planners must be
/// self-sufficient.
///
/// Execution is parallel on the cluster's host thread pool
/// (Cluster::pool()): each simulated node's chunk joins run as one
/// concurrent task, and delta-chunk upserts fan out per chunk. Simulated
/// clock charges accumulate in a thread-safe bank committed after each
/// parallel phase, and fragments merge into view chunks in canonical
/// ascending-ChunkId order, so the resulting views, catalog, and clocks are
/// bit-identical to serial execution (--threads 1) regardless of host
/// scheduling. Per-view fragments are bit-identical to running the
/// single-view kernel per member (see MultiViewJoinAggregateChunkPair).
///
/// After execution every member's content is exactly its view definition
/// evaluated over base+delta (verified against full recomputation in the
/// test suite), and the catalog reflects every reassignment.
/// `prefetch`, if given, memoizes compiled-shape lookups for the enclosing
/// maintenance pass (the executor's prefetch loop then shares entries with
/// the pass's other kernels instead of re-querying the global cache).
Result<ExecutionStats> ExecuteMaintenancePlan(const MaintenancePlan& plan,
                                              const TripleSet& triples,
                                              ViewSet* set,
                                              DistributedArray* left_delta,
                                              DistributedArray* right_delta,
                                              ShapePrefetch* prefetch = nullptr);

}  // namespace avm

