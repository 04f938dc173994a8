#include "maintenance/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "array/chunk_pool.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "join/compiled_shape.h"
#include "join/fragment_merge.h"
#include "join/join_kernel.h"
#include "join/multiview_kernel.h"
#include "maintenance/makespan_tracker.h"
#include "maintenance/plan_validator.h"
#include "telemetry/metrics.h"
#include "telemetry/stopwatch.h"
#include "telemetry/trace.h"

namespace avm {

namespace {

/// Resolves maintenance-time chunk refs to concrete arrays.
class RefResolver {
 public:
  RefResolver(MaterializedView* view, DistributedArray* ldelta,
              DistributedArray* rdelta)
      : view_(view), ldelta_(ldelta), rdelta_(rdelta) {}

  Result<DistributedArray*> ArrayOf(ChunkSide side) const {
    switch (side) {
      case ChunkSide::kLeftBase:
        return &view_->left_base();
      case ChunkSide::kRightBase:
        return &view_->right_base();
      case ChunkSide::kLeftDelta:
        if (ldelta_ == nullptr) {
          return Status::Internal("plan references a missing left delta");
        }
        return ldelta_;
      case ChunkSide::kRightDelta:
        if (rdelta_ == nullptr) {
          return Status::Internal("plan references a missing right delta");
        }
        return rdelta_;
    }
    return Status::Internal("bad chunk side");
  }

  /// The base array a delta side merges into.
  DistributedArray& BaseOf(ChunkSide side) const {
    return (side == ChunkSide::kRightDelta || side == ChunkSide::kRightBase)
               ? view_->right_base()
               : view_->left_base();
  }

 private:
  MaterializedView* view_;
  DistributedArray* ldelta_;
  DistributedArray* rdelta_;
};

/// A node id a plan may legally name as a data location: a worker or the
/// coordinator. Plans produced by the planners never place work outside the
/// cluster; a stray id is a planner bug surfaced as Internal, not a crash.
Status ValidatePlanNode(NodeId node, int num_workers, const char* what) {
  if (node == kCoordinatorNode || (node >= 0 && node < num_workers)) {
    return Status::OK();
  }
  return Status::Internal(std::string(what) + " references unknown node id " +
                          std::to_string(node));
}

/// Joins must run on a worker (the coordinator has no join capability).
Status ValidateJoinNode(NodeId node, int num_workers) {
  if (node >= 0 && node < num_workers) return Status::OK();
  return Status::Internal("join assigned to unknown node id " +
                          std::to_string(node));
}

/// Folds the cells of `delta_chunk` into the base chunk resident at `node`
/// (upsert semantics: new detections are inserts/overwrites of raw data).
void UpsertCells(const Chunk& delta_chunk, Chunk* base_chunk) {
  base_chunk->Reserve(base_chunk->num_cells() + delta_chunk.num_cells());
  delta_chunk.ForEachCellWithOffset(
      [&](uint64_t offset, std::span<const int64_t> coord,
          std::span<const double> values) {
        base_chunk->UpsertCell(offset, coord, values);
      });
}

/// Identifies a chunk pair by its operands rather than by its position in
/// the plan or its executing node. Fragments are accumulated per pair and
/// merged in ascending PairKey order, so every floating-point sum in the
/// view states depends only on WHICH pairs contributed — never on where the
/// planner placed them or how the triple set happened to be ordered. That
/// placement-invariance is what lets a jointly planned view-set pass (whose
/// plan legitimately differs from any single view's solo plan) stay
/// bit-identical to solo maintenance, and it also keeps results stable
/// across planner changes.
using PairKey = std::tuple<int, ChunkId, int, ChunkId>;

PairKey KeyOfPair(const JoinPair& pair) {
  return {static_cast<int>(pair.a.side), pair.a.id,
          static_cast<int>(pair.b.side), pair.b.id};
}

/// All join work one worker node executes, plus its outputs. One NodeJoinWork
/// is the unit of parallelism: a single host task runs the node's joins in
/// plan order, demultiplexing each pair's matches into one fragment map per
/// view-set member.
struct NodeJoinWork {
  NodeId node = 0;
  std::vector<size_t> join_indices;  // into plan.joins, ascending
  // One per-lane fragment vector per executed pair (lane-indexed inner),
  // tagged with the pair's canonical key.
  std::vector<std::pair<PairKey, std::vector<std::map<ChunkId, Chunk>>>>
      fragments;
  uint64_t joins_executed = 0;
  uint64_t bytes_joined = 0;
  Status status = Status::OK();
};

/// Exports the simulated per-node clock deltas of this execution as spans on
/// synthetic "sim" timelines (one network lane and one cpu lane per node),
/// positioned at the node's pre-execution clock value so consecutive batches
/// tile the simulated time axis. Also folds the batch totals into the
/// registry counters that the acceptance checks reconcile against the
/// MakespanTracker.
void EmitSimulatedClockTelemetry(const ClusterClockSnapshot& entry,
                                 const ExecutionStats& stats,
                                 int num_workers) {
  TraceCollector& collector = TraceCollector::Global();
  uint64_t total_ntwk_bytes = 0;
  uint64_t total_cpu_bytes = 0;
  for (size_t i = 0; i < stats.per_node.size(); ++i) {
    const NodeActivity& a = stats.per_node[i];
    total_ntwk_bytes += a.ntwk_bytes;
    total_cpu_bytes += a.cpu_bytes;
    const bool coordinator = i == static_cast<size_t>(num_workers);
    const NodeClock& then = coordinator ? entry.coordinator : entry.workers[i];
    const int64_t node =
        coordinator ? kCoordinatorNode : static_cast<int64_t>(i);
    if (a.ntwk_seconds > 0.0 || a.ntwk_bytes > 0) {
      TraceEvent e;
      e.name = "sim.ntwk";
      e.cat = "sim";
      e.ts_ns = static_cast<int64_t>(then.ntwk_seconds * 1e9);
      e.dur_ns = static_cast<int64_t>(a.ntwk_seconds * 1e9);
      e.tid = kSimTidBase + 2 * static_cast<int32_t>(i);
      e.num_args = 2;
      e.args[0] = TraceArg{"node", node};
      e.args[1] = TraceArg{"bytes", static_cast<int64_t>(a.ntwk_bytes)};
      collector.Emit(e);
    }
    if (a.cpu_seconds > 0.0 || a.cpu_bytes > 0) {
      TraceEvent e;
      e.name = "sim.cpu";
      e.cat = "sim";
      e.ts_ns = static_cast<int64_t>(then.cpu_seconds * 1e9);
      e.dur_ns = static_cast<int64_t>(a.cpu_seconds * 1e9);
      e.tid = kSimTidBase + 2 * static_cast<int32_t>(i) + 1;
      e.num_args = 2;
      e.args[0] = TraceArg{"node", node};
      e.args[1] = TraceArg{"bytes", static_cast<int64_t>(a.cpu_bytes)};
      collector.Emit(e);
    }
  }
  CountAdd(CounterId::kExecBytesTransferred, total_ntwk_bytes);
  CountAdd(CounterId::kExecBytesJoined, total_cpu_bytes);
  CountAdd(CounterId::kExecJoinsExecuted, stats.joins_executed);
  CountAdd(CounterId::kExecFragmentsMerged, stats.fragments_merged);
  CountAdd(CounterId::kExecDeltaChunksMerged, stats.delta_chunks_merged);
}

/// Step 1: co-location transfers (x variables). Senders' clocks charged.
/// Serial: transfers mutate node stores, and later steps depend on every
/// replica being in place.
Status RunPlannedTransfers(const MaintenancePlan& plan,
                           const RefResolver& resolver, Cluster* cluster,
                           int num_workers) {
  ScopedSpan transfer_span("exec.transfers", "exec");
  transfer_span.AddArg("transfers",
                       static_cast<int64_t>(plan.transfers.size()));
  for (const auto& t : plan.transfers) {
    AVM_RETURN_IF_ERROR(
        ValidatePlanNode(t.from, num_workers, "transfer source"));
    AVM_RETURN_IF_ERROR(
        ValidatePlanNode(t.to, num_workers, "transfer destination"));
    AVM_ASSIGN_OR_RETURN(DistributedArray * array,
                         resolver.ArrayOf(t.chunk.side));
    AVM_RETURN_IF_ERROR(
        cluster->TransferChunk(array->id(), t.chunk.id, t.from, t.to));
  }
  return Status::OK();
}

/// Step 5: fold the delta chunks into their base arrays. Transfers,
/// placement decisions, and catalog writes stay on the control thread; the
/// cell-level upserts — each touching a distinct base chunk — fan out on
/// the pool once every operand is in place.
Status FoldDeltaChunks(const MaintenancePlan& plan,
                       const RefResolver& resolver, Cluster* cluster,
                       Catalog* catalog, DistributedArray* left_delta,
                       DistributedArray* right_delta, int num_workers,
                       ExecutionStats* stats) {
  std::optional<ScopedSpan> fold_span(std::in_place, "exec.delta_fold",
                                      "exec");
  std::map<MChunkRef, NodeId> planned_delta_home;
  for (const auto& move : plan.array_moves) {
    if (!IsDeltaSide(move.chunk.side)) continue;
    AVM_RETURN_IF_ERROR(
        ValidatePlanNode(move.node, num_workers, "delta move"));
    planned_delta_home[move.chunk] = move.node;
  }
  struct UpsertJob {
    // Handles pin both operands: with a buffer manager attached, any store
    // access between here and the ParallelFor below could otherwise evict
    // an unpinned chunk before its job runs.
    ChunkHandle delta;
    MutableChunkHandle base_chunk;
    const ChunkGrid* grid = nullptr;
    ArrayId base_id = 0;
    ChunkId chunk_id = 0;
  };
  std::vector<UpsertJob> upserts;
  for (DistributedArray* delta : {left_delta, right_delta}) {
    if (delta == nullptr) continue;
    const ChunkSide side = (delta == right_delta) ? ChunkSide::kRightDelta
                                                  : ChunkSide::kLeftDelta;
    DistributedArray& base = resolver.BaseOf(side);
    for (ChunkId d : catalog->ChunkIdsOf(delta->id())) {
      NodeId home;
      const bool base_exists = catalog->HasChunk(base.id(), d);
      if (base_exists) {
        AVM_ASSIGN_OR_RETURN(home, catalog->NodeOf(base.id(), d));
      } else {
        auto it = planned_delta_home.find(MChunkRef{side, d});
        home = it != planned_delta_home.end()
                   ? it->second
                   : catalog->PlaceByStrategy(base.id(), d,
                                              cluster->num_workers());
      }
      // Make sure the delta data is at the merge site; ship from the
      // nearest existing replica (join co-location often already paid for
      // one) rather than always re-sending from the coordinator.
      if (!cluster->store(home).Contains(delta->id(), d)) {
        NodeId source = kCoordinatorNode;
        for (NodeId n = 0; n < cluster->num_workers(); ++n) {
          if (cluster->store(n).Contains(delta->id(), d)) {
            source = n;
            break;
          }
        }
        AVM_RETURN_IF_ERROR(
            cluster->TransferChunk(delta->id(), d, source, home));
      }
      ChunkHandle delta_handle = cluster->store(home).GetHandle(delta->id(), d);
      if (base_exists) {
        // The pin's extra refcount blocks eviction until the job is done.
        MutableChunkHandle base_chunk =
            cluster->store(home).PinMutable(base.id(), d);
        if (base_chunk == nullptr) {
          return Status::Internal(
              "base chunk missing from its primary node during delta merge");
        }
        upserts.push_back({std::move(delta_handle), std::move(base_chunk),
                           &base.grid(), base.id(), d});
      } else {
        // The delta chunk *becomes* the base chunk: alias it instead of
        // copying. Step 6 erases the transient delta entry; the base entry's
        // handle keeps the bytes alive, so after cleanup the store owns the
        // chunk uniquely and future-batch folds mutate it copy-free.
        const uint64_t bytes =
            cluster->store(home).PutHandle(base.id(), d, std::move(delta_handle));
        catalog->AssignChunk(base.id(), d, home);
        catalog->SetChunkBytes(base.id(), d, bytes);
      }
      ++stats->delta_chunks_merged;
    }
  }
  cluster->pool()->ParallelFor(upserts.size(), [&](size_t i) {
    UpsertCells(*upserts[i].delta, upserts[i].base_chunk.get());
    // Adapt in the parallel task: a first conversion scatters O(volume)
    // cells, which amortizes like the upsert itself. Jobs touch disjoint
    // base chunks, so this races with nothing.
    upserts[i].base_chunk->MaybeAdaptRepresentation(*upserts[i].grid,
                                                    upserts[i].chunk_id);
  });
  for (const UpsertJob& job : upserts) {
    catalog->SetChunkBytes(job.base_id, job.chunk_id,
                           job.base_chunk->SizeBytes());
  }
  fold_span->AddArg("delta_chunks",
                    static_cast<int64_t>(stats->delta_chunks_merged));
  return Status::OK();
}

/// Step 6: drop every non-primary replica of the persistent arrays and all
/// delta copies (scratch space reclaimed after maintenance).
void CleanupReplicas(Cluster* cluster, Catalog* catalog,
                     const std::vector<ArrayId>& persistent,
                     const std::vector<ArrayId>& transient) {
  ScopedSpan cleanup_span("exec.cleanup", "exec");
  auto cleanup_store = [&](NodeId node) {
    ChunkStore& store = cluster->store(node);
    std::vector<std::pair<ArrayId, ChunkId>> drop;
    // Key-only walk: ForEach would fault every spilled chunk back in just
    // to decide whether to erase it.
    store.ForEachKey([&](ArrayId array, ChunkId chunk) {
      for (ArrayId t : transient) {
        if (array == t) {
          drop.push_back({array, chunk});
          return;
        }
      }
      for (ArrayId p : persistent) {
        if (array == p) {
          auto primary = catalog->NodeOf(array, chunk);
          if (!primary.ok() || primary.value() != node) {
            drop.push_back({array, chunk});
          }
          return;
        }
      }
    });
    for (const auto& [array, chunk] : drop) store.Erase(array, chunk);
  };
  cleanup_store(kCoordinatorNode);
  for (NodeId n = 0; n < cluster->num_workers(); ++n) cleanup_store(n);
}

}  // namespace

Result<ExecutionStats> ExecuteMaintenancePlan(const MaintenancePlan& plan,
                                              const TripleSet& triples,
                                              ViewSet* set,
                                              DistributedArray* left_delta,
                                              DistributedArray* right_delta,
                                              ShapePrefetch* prefetch) {
  if (set == nullptr || set->empty()) {
    return Status::InvalidArgument("null or empty view set");
  }
  MaterializedView* primary = set->primary();
  const size_t num_views = set->size();
  ExecutionStats stats;
  stats.per_view.resize(num_views);
  for (size_t k = 0; k < num_views; ++k) {
    stats.per_view[k].view_name = set->view(k)->definition().view_name;
  }
  Cluster* cluster = primary->array().cluster();
  // Pre-execution clocks: per-node activity (and the sim-timeline spans) are
  // deltas against this. Cheap (one NodeClock copy per node), so always on.
  const ClusterClockSnapshot entry_clocks = ClusterClockSnapshot::Take(*cluster);
  ScopedSpan exec_span("exec.batch", "exec");
  Catalog* catalog = primary->array().catalog();
  const int num_workers = cluster->num_workers();
  const RefResolver resolver(primary, left_delta, right_delta);

  // In Debug/test builds, re-check the plan contract at the execution
  // boundary: the executor trusts co-location and the exactly-once join
  // assignment below, so a malformed plan must be caught before it mutates
  // any node store.
  if constexpr (kDebugChecksEnabled) {
    ValidateMaintenancePlan(plan, triples, num_workers,
                            &cluster->cost_model());
  }

  AVM_RETURN_IF_ERROR(
      RunPlannedTransfers(plan, resolver, cluster, num_workers));

  // Step 2: joins (z variables), grouped by executing node and run
  // concurrently across nodes on the host thread pool — the real-thread
  // counterpart of the per-node parallelism the MIP objective assumes.
  // During the parallel phase tasks only read node stores (all replicas were
  // placed in step 1) and write task-local state; simulated CPU seconds
  // accumulate in a ConcurrentClockBank committed after the barrier, so
  // clocks and makespan are bit-identical to serial execution.
  std::map<NodeId, NodeJoinWork> work_by_node;
  for (size_t i = 0; i < plan.joins.size(); ++i) {
    const auto& join = plan.joins[i];
    if (join.pair_index >= triples.pairs.size()) {
      return Status::Internal("join references a pair outside the triple set");
    }
    AVM_RETURN_IF_ERROR(ValidateJoinNode(join.node, num_workers));
    // Resolve operand arrays up front: a missing delta is a plan bug we
    // report deterministically before any parallel work starts.
    const JoinPair& pair = triples.pairs[join.pair_index];
    AVM_RETURN_IF_ERROR(resolver.ArrayOf(pair.a.side).status());
    AVM_RETURN_IF_ERROR(resolver.ArrayOf(pair.b.side).status());
    NodeJoinWork& work = work_by_node[join.node];
    work.node = join.node;
    work.join_indices.push_back(i);
  }
  std::vector<NodeJoinWork*> tasks;
  tasks.reserve(work_by_node.size());
  for (auto& [node, work] : work_by_node) tasks.push_back(&work);

  // Compile the members' shapes once per distinct operand array before the
  // fan-out: plans with hundreds of chunk-joins share one linearization, and
  // the hot loop never touches the cache lock. Base and delta arrays chunk
  // the same space, so these usually all resolve to a single cached entry.
  // A one-member set compiles just its own shape, without masks.
  const std::vector<const Shape*> shapes = set->shapes();
  const DimMapping& mapping = primary->definition().mapping;
  std::map<const DistributedArray*, CompiledViewSet> compiled_by_array;
  for (const auto& [node, work] : work_by_node) {
    for (size_t i : work.join_indices) {
      const JoinPair& pair = triples.pairs[plan.joins[i].pair_index];
      for (const ChunkSide side : {pair.a.side, pair.b.side}) {
        const DistributedArray* array = resolver.ArrayOf(side).value();
        if (compiled_by_array.count(array) > 0) continue;
        AVM_ASSIGN_OR_RETURN(
            CompiledViewSet compiled,
            CompiledViewSet::Create(shapes, mapping, array->grid(), prefetch));
        compiled_by_array.emplace(array, std::move(compiled));
      }
    }
  }

  // Lane metadata with stable addresses across the parallel phase.
  std::vector<const AggregateLayout*> layouts(num_views);
  std::vector<ViewTarget> lane_targets(num_views);
  for (size_t k = 0; k < num_views; ++k) {
    layouts[k] = &set->view(k)->layout();
    lane_targets[k] = ViewTarget{&set->view(k)->definition().group_dims,
                                 &set->view(k)->array().grid()};
  }

  ConcurrentClockBank clock_bank(num_workers);
  const CostModel& cost_model = cluster->cost_model();
  // optional<> so the phase span can close right after the clock commit
  // without re-scoping the fan-out below.
  std::optional<ScopedSpan> join_phase_span(std::in_place, "exec.joins",
                                            "exec");
  join_phase_span->AddArg("nodes", static_cast<int64_t>(tasks.size()));
  join_phase_span->AddArg("views", static_cast<int64_t>(num_views));
  cluster->pool()->ParallelFor(tasks.size(), [&](size_t t) {
    NodeJoinWork& work = *tasks[t];
    const NodeId k = work.node;
    // One wall-clock span per simulated node's join task, on whichever host
    // thread ran it; compare against the node's "sim.cpu" lane to see how
    // simulated charges line up with host execution.
    ScopedSpan node_span("exec.node_joins", "exec");
    node_span.AddArg("node", k);
    std::vector<MultiViewLane> lanes(num_views);
    const ChunkStore& store = cluster->store(k);
    for (size_t i : work.join_indices) {
      const MaintenancePlan::Join& join = plan.joins[i];
      const JoinPair& pair = triples.pairs[join.pair_index];
      // Operand arrays were validated before the fan-out; value() is safe.
      DistributedArray* a_array = resolver.ArrayOf(pair.a.side).value();
      DistributedArray* b_array = resolver.ArrayOf(pair.b.side).value();
      // Handles, not raw pointers: with a buffer manager attached, any
      // store access on a concurrent task could evict an unpinned chunk;
      // the handle pins both operands for the kernel's duration (and
      // faults them in if the planner left them spilled).
      const ChunkHandle a_chunk = store.GetHandle(a_array->id(), pair.a.id);
      const ChunkHandle b_chunk = store.GetHandle(b_array->id(), pair.b.id);
      if (a_chunk == nullptr || b_chunk == nullptr) {
        work.status = Status::Internal(
            "plan did not co-locate both operands of a join at node " +
            std::to_string(k));
        return;
      }
      // ONE cpu charge per pair — K views amortize the same operand scan;
      // the joint plan priced pairs the same way.
      clock_bank.AddCpu(k, cost_model.JoinSeconds(pair.bytes), pair.bytes);
      work.bytes_joined += pair.bytes;
      // Each pair folds into its own per-view fragment maps (both
      // directions, ab first) so the merge can impose a canonical pair
      // order later.
      work.fragments.emplace_back(
          KeyOfPair(pair), std::vector<std::map<ChunkId, Chunk>>(num_views));
      std::vector<std::map<ChunkId, Chunk>>& pair_fragments =
          work.fragments.back().second;
      for (size_t v = 0; v < num_views; ++v) {
        lanes[v] = MultiViewLane{layouts[v], lane_targets[v],
                                 &pair_fragments[v]};
      }
      if (pair.dir_ab) {
        const RightOperand rop{b_chunk.get(), pair.b.id, &b_array->grid()};
        work.status = MultiViewJoinAggregateChunkPair(
            *a_chunk, rop, compiled_by_array.at(b_array), lanes,
            /*multiplicity=*/1);
        if (!work.status.ok()) return;
        ++work.joins_executed;
      }
      if (pair.dir_ba) {
        const RightOperand rop{a_chunk.get(), pair.a.id, &a_array->grid()};
        work.status = MultiViewJoinAggregateChunkPair(
            *b_chunk, rop, compiled_by_array.at(a_array), lanes,
            /*multiplicity=*/1);
        if (!work.status.ok()) return;
        ++work.joins_executed;
      }
    }
    node_span.AddArg("joins", static_cast<int64_t>(work.joins_executed));
    node_span.AddArg("bytes_joined",
                     static_cast<int64_t>(work.bytes_joined));
  });
  clock_bank.CommitTo(cluster);
  join_phase_span.reset();
  // Surface the first failure in ascending node order (deterministic
  // regardless of which task hit it first on the wall clock).
  for (const NodeJoinWork* work : tasks) {
    AVM_RETURN_IF_ERROR(work->status);
    stats.joins_executed += work->joins_executed;
  }

  // Step 3a: relocate view chunks whose planned home differs from their
  // current node (the y_v reassignment) — chunk v of EVERY member's view
  // array: the members are co-gridded, so one planned home applies to each
  // of them and keeps the whole set co-located for serving.
  std::optional<ScopedSpan> merge_span(std::in_place, "exec.view_merge",
                                       "exec");
  for (const auto& [v, home] : plan.view_home) {
    AVM_RETURN_IF_ERROR(ValidatePlanNode(home, num_workers, "view home"));
    for (size_t k = 0; k < num_views; ++k) {
      const ArrayId vid = set->view(k)->array().id();
      auto current = catalog->NodeOf(vid, v);
      if (!current.ok() || current.value() == home) continue;
      AVM_RETURN_IF_ERROR(
          cluster->TransferChunk(vid, v, current.value(), home));
      catalog->AssignChunk(vid, v, home);
      ++stats.view_chunks_touched;
      ++stats.per_view[k].view_chunks_touched;
    }
  }

  // Step 3b: ship fragments to their view chunk's home and merge, view by
  // view. Fragments are folded per view chunk in canonical ascending
  // ChunkId order, each chunk's contributions in ascending PairKey order —
  // a fixed merge schedule independent of how the join tasks were
  // interleaved AND of where the planner placed each pair, so the merged
  // floating-point sums are a pure function of the contributing pair set:
  // the pairs a member's shape actually reaches contribute the same
  // fragments in the same order as its solo maintenance, and union-only
  // pairs contribute none.
  for (size_t k = 0; k < num_views; ++k) {
    Stopwatch merge_clock;
    MaterializedView* member = set->view(k);
    const ArrayId vid = member->array().id();
    std::map<ChunkId,
             std::vector<std::tuple<PairKey, NodeId, const Chunk*>>>
        fragments_by_view_chunk;
    for (const NodeJoinWork* work : tasks) {
      for (const auto& [key, pair_fragments] : work->fragments) {
        for (const auto& [v, fragment] : pair_fragments[k]) {
          fragments_by_view_chunk[v].push_back({key, work->node, &fragment});
        }
      }
    }
    for (auto& [v, producers] : fragments_by_view_chunk) {
      std::sort(producers.begin(), producers.end(),
                [](const auto& lhs, const auto& rhs) {
                  return std::get<0>(lhs) < std::get<0>(rhs);
                });
      NodeId home;
      auto planned = plan.view_home.find(v);
      if (planned != plan.view_home.end()) {
        home = planned->second;
      } else {
        auto current = catalog->NodeOf(vid, v);
        home = current.ok() ? current.value()
                            : catalog->PlaceByStrategy(
                                  vid, v, cluster->num_workers());
      }
      for (const auto& [key, producer, fragment] : producers) {
        if (producer != home) {
          cluster->ChargeNetwork(producer, fragment->SizeBytes());
        }
        AVM_RETURN_IF_ERROR(MergeStateFragment(&member->array(), v, *fragment,
                                               member->layout(), home));
        ++stats.fragments_merged;
        ++stats.per_view[k].fragments_merged;
        stats.per_view[k].fragment_bytes += fragment->SizeBytes();
      }
    }
    stats.per_view[k].merge_wall_seconds = merge_clock.ElapsedSeconds();
  }
  merge_span->AddArg("fragments",
                     static_cast<int64_t>(stats.fragments_merged));
  merge_span.reset();
  // The fragment scratch chunks are dead after the merge; park their buffer
  // capacity in the pool so the next batch's join phase (which acquires on
  // the worker threads, see FragmentBuilder) skips the allocator.
  for (NodeJoinWork* work : tasks) {
    for (auto& [key, pair_fragments] : work->fragments) {
      for (auto& per_view : pair_fragments) {
        for (auto& [v, fragment] : per_view) {
          ChunkPool::Release(std::move(fragment));
        }
      }
    }
    work->fragments.clear();
  }

  // Step 4: stage-3 storage redistribution of base chunks (free: the data
  // was already replicated during maintenance; only primaries change).
  for (const auto& move : plan.array_moves) {
    if (IsDeltaSide(move.chunk.side)) continue;  // handled with the merge
    AVM_RETURN_IF_ERROR(
        ValidatePlanNode(move.node, num_workers, "array move"));
    AVM_ASSIGN_OR_RETURN(DistributedArray * array,
                         resolver.ArrayOf(move.chunk.side));
    auto current = catalog->NodeOf(array->id(), move.chunk.id);
    if (!current.ok() || current.value() == move.node) continue;
    if (!cluster->store(move.node).Contains(array->id(), move.chunk.id)) {
      // The planner promised a replica here; pay for the move otherwise.
      AVM_RETURN_IF_ERROR(cluster->TransferChunk(
          array->id(), move.chunk.id, current.value(), move.node));
    }
    catalog->AssignChunk(array->id(), move.chunk.id, move.node);
    ++stats.base_chunks_moved;
  }

  AVM_RETURN_IF_ERROR(FoldDeltaChunks(plan, resolver, cluster, catalog,
                                      left_delta, right_delta, num_workers,
                                      &stats));

  std::vector<ArrayId> persistent = {primary->left_base().id()};
  if (primary->right_base().id() != primary->left_base().id()) {
    persistent.push_back(primary->right_base().id());
  }
  for (MaterializedView* member : set->views()) {
    persistent.push_back(member->array().id());
  }
  std::vector<ArrayId> transient;
  if (left_delta != nullptr) transient.push_back(left_delta->id());
  if (right_delta != nullptr) transient.push_back(right_delta->id());
  CleanupReplicas(cluster, catalog, persistent, transient);

  // Post-batch audit: the catalog's bookkeeping for the persistent arrays
  // must match the physical stores, and no scratch replica may survive the
  // cleanup above.
  if constexpr (kDebugChecksEnabled) {
    ValidateCatalogStoreConsistency(*catalog, *cluster, persistent);
  }

  stats.per_node = entry_clocks.ActivitySince(*cluster);
  if (TelemetryEnabled()) {
    EmitSimulatedClockTelemetry(entry_clocks, stats, num_workers);
  }
  return stats;
}

}  // namespace avm
