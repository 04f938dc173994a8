#include "maintenance/deletions.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "join/compiled_shape.h"
#include "join/fragment_merge.h"
#include "join/multiview_kernel.h"
#include "join/pair_enumeration.h"

namespace avm {

namespace {

/// Snapshots the victims with their *current* base values; coordinates that
/// do not exist in the base are silently skipped (idempotent deletes).
Result<SparseArray> SnapshotVictims(const DistributedArray& base,
                                    const SparseArray& deleted_cells) {
  const Catalog* catalog = base.catalog();
  const Cluster* cluster = base.cluster();
  const ChunkGrid& grid = base.grid();
  SparseArray victims(base.schema());
  Status status = Status::OK();
  CellCoord coord;
  deleted_cells.ForEachCell([&](std::span<const int64_t> c,
                                std::span<const double>) {
    if (!status.ok()) return;
    coord.assign(c.begin(), c.end());
    auto node = catalog->NodeOf(base.id(), grid.IdOfCell(coord));
    if (!node.ok()) return;
    const ChunkHandle chunk = cluster->store(node.value())
                                  .GetHandle(base.id(), grid.IdOfCell(coord));
    const double* values =
        chunk == nullptr ? nullptr
                         : chunk->GetCell(grid.InChunkOffset(coord));
    if (values == nullptr) return;
    status = victims.Set(coord, {values, base.schema().num_attrs()});
  });
  if (!status.ok()) return status;
  return victims;
}

/// Erases the victims from their base chunks (dropping emptied chunks).
Status EraseVictims(DistributedArray* base, const SparseArray& victims) {
  Cluster* cluster = base->cluster();
  Catalog* catalog = base->catalog();
  const ChunkGrid& grid = base->grid();
  Status status = Status::OK();
  victims.ForEachChunk([&](ChunkId m, const Chunk& victim_chunk) {
    if (!status.ok()) return;
    auto node = catalog->NodeOf(base->id(), m);
    if (!node.ok()) {
      status = Status::Internal("victim chunk vanished from the catalog");
      return;
    }
    ChunkStore& store = cluster->store(node.value());
    // Pin-while-mutating: the handle keeps the chunk evict-proof for the
    // duration of the erase.
    const MutableChunkHandle chunk = store.PinMutable(base->id(), m);
    if (chunk == nullptr) {
      status = Status::Internal("victim chunk missing from its store");
      return;
    }
    victim_chunk.ForEachCellWithOffset(
        [&](uint64_t offset, std::span<const int64_t>,
            std::span<const double>) { chunk->EraseCell(offset); });
    if (chunk->empty()) {
      cluster->store(node.value()).Erase(base->id(), m);
      catalog->RemoveChunk(base->id(), m);
    } else {
      // Deletions may drop a dense chunk below the sparsify floor.
      chunk->MaybeAdaptRepresentation(grid, m);
      catalog->SetChunkBytes(base->id(), m, chunk->SizeBytes());
    }
  });
  return status;
}

/// Removes view cells of `view` whose state returned to the aggregate
/// identity after the retraction merge, dropping emptied view chunks.
void CollectIdentityCells(MaterializedView* view,
                          const std::set<std::pair<ChunkId, uint64_t>>& touched,
                          DeletionStats* stats) {
  Cluster* cluster = view->array().cluster();
  Catalog* catalog = view->array().catalog();
  const AggregateLayout& layout = view->layout();
  const ArrayId view_id = view->array().id();
  for (const auto& [v, offset] : touched) {
    auto node = catalog->NodeOf(view_id, v);
    if (!node.ok()) continue;
    ChunkStore& store = cluster->store(node.value());
    // Pin-while-mutating.
    const MutableChunkHandle chunk = store.PinMutable(view_id, v);
    if (chunk == nullptr) continue;
    const double* state = chunk->GetCell(offset);
    if (state != nullptr &&
        layout.IsIdentity({state, layout.num_state_slots()})) {
      chunk->EraseCell(offset);
      ++stats->view_cells_removed;
    }
    if (chunk->empty()) {
      cluster->store(node.value()).Erase(view_id, v);
      catalog->RemoveChunk(view_id, v);
    } else {
      chunk->MaybeAdaptRepresentation(view->array().grid(), v);
      catalog->SetChunkBytes(view_id, v, chunk->SizeBytes());
    }
  }
}

/// Merges retraction fragments into the view (charging shipping) and
/// returns the affected (view chunk, offset) pairs for identity cleanup.
Status MergeRetractions(
    MaterializedView* view,
    std::map<NodeId, std::map<ChunkId, Chunk>>* fragments_by_node,
    std::set<std::pair<ChunkId, uint64_t>>* touched) {
  Cluster* cluster = view->array().cluster();
  Catalog* catalog = view->array().catalog();
  const ArrayId view_id = view->array().id();
  for (auto& [producer, fragments] : *fragments_by_node) {
    for (auto& [v, fragment] : fragments) {
      fragment.ForEachCellWithOffset(
          [&](uint64_t offset, std::span<const int64_t>,
              std::span<const double>) { touched->insert({v, offset}); });
      auto home_result = catalog->NodeOf(view_id, v);
      const NodeId home =
          home_result.ok() ? home_result.value()
                           : catalog->PlaceByStrategy(
                                 view_id, v, cluster->num_workers());
      if (producer != home) {
        cluster->ChargeNetwork(producer, fragment.SizeBytes());
      }
      AVM_RETURN_IF_ERROR(MergeStateFragment(&view->array(), v, fragment,
                                             view->layout(), home));
    }
  }
  return Status::OK();
}

}  // namespace

Result<DeletionStats> ApplyDeletionBatch(MaterializedView* view,
                                         const SparseArray& deleted_cells,
                                         ShapePrefetch* prefetch) {
  if (view == nullptr) return Status::InvalidArgument("null view");
  ViewSet set(view);
  return ApplyDeletionBatch(&set, deleted_cells, prefetch);
}

Result<DeletionStats> ApplyDeletionBatch(ViewSet* set,
                                         const SparseArray& deleted_cells,
                                         ShapePrefetch* prefetch) {
  if (set == nullptr || set->empty()) {
    return Status::InvalidArgument("null or empty view set");
  }
  MaterializedView* primary = set->primary();
  const ViewDefinition& def = primary->definition();
  if (!def.IsSelfJoin() || !def.mapping.IsIdentity()) {
    return Status::Unimplemented(
        "deletion batches are supported for identity self-join views");
  }
  const size_t num_views = set->size();
  for (MaterializedView* member : set->views()) {
    if (!member->layout().SupportsRetraction()) {
      return Status::FailedPrecondition(
          "deletions require retractable aggregates (COUNT/SUM/AVG); view '" +
          member->definition().view_name + "' uses MIN/MAX");
    }
  }
  DistributedArray& base = primary->left_base();
  Cluster* cluster = base.cluster();
  Catalog* catalog = base.catalog();
  const ChunkGrid& grid = base.grid();
  const ClusterClockSnapshot before = ClusterClockSnapshot::Take(*cluster);
  DeletionStats stats;

  AVM_ASSIGN_OR_RETURN(SparseArray victims,
                       SnapshotVictims(base, deleted_cells));
  stats.deleted_cells = victims.NumCells();
  if (stats.deleted_cells == 0) {
    return stats;  // nothing to do
  }

  // Partners are enumerated under the members' union — a superset of every
  // member's own partner set, so per-view retractions stay bit-identical:
  // a pair only one member needs folds zero matches into the others
  // (create-on-first-match emits no fragment for them). A one-member set
  // compiles just its own shape and runs the single-view kernel.
  AVM_ASSIGN_OR_RETURN(
      CompiledViewSet compiled_set,
      CompiledViewSet::Create(set->shapes(), def.mapping, grid, prefetch));
  AVM_ASSIGN_OR_RETURN(
      ChunkFootprint footprint,
      ChunkFootprint::Compute(compiled_set.union_shape(), grid.extents()));
  AVM_ASSIGN_OR_RETURN(ChunkFootprint reflected,
                       ChunkFootprint::Compute(
                           compiled_set.union_shape().Reflected(),
                           grid.extents()));
  auto base_exists = [&](ChunkId q) {
    return catalog->HasChunk(base.id(), q);
  };

  std::vector<const AggregateLayout*> layouts(num_views);
  std::vector<ViewTarget> targets(num_views);
  for (size_t k = 0; k < num_views; ++k) {
    layouts[k] = &set->view(k)->layout();
    targets[k] = ViewTarget{&set->view(k)->definition().group_dims,
                            &set->view(k)->array().grid()};
  }
  std::vector<std::map<NodeId, std::map<ChunkId, Chunk>>> fragments_by_node(
      num_views);
  auto lanes_at = [&](NodeId node) {
    std::vector<MultiViewLane> lanes(num_views);
    for (size_t k = 0; k < num_views; ++k) {
      lanes[k] = MultiViewLane{layouts[k], targets[k],
                               &fragments_by_node[k][node]};
    }
    return lanes;
  };

  // One retraction pass: for every victim chunk m and every base chunk q
  // enumerated under `fp`, one shared kernel run at q's node with one
  // transfer/CPU charge for all K views. `victims_left` picks the victim
  // chunk as the kernel's left (group-by) operand, else q.
  auto retract = [&](const ChunkFootprint& fp, bool victims_left) {
    Status status = Status::OK();
    victims.ForEachChunk([&](ChunkId m, const Chunk& victim_chunk) {
      if (!status.ok()) return;
      for (ChunkId q : EnumerateJoinPartnersExact(grid, m, fp, base_exists)) {
        auto node = catalog->NodeOf(base.id(), q);
        if (!node.ok()) continue;
        const ChunkHandle partner =
            cluster->store(node.value()).GetHandle(base.id(), q);
        if (partner == nullptr) {
          status = Status::Internal("base chunk missing from its store");
          return;
        }
        cluster->ChargeNetwork(kCoordinatorNode, victim_chunk.SizeBytes());
        cluster->ChargeJoin(node.value(),
                            victim_chunk.SizeBytes() + partner->SizeBytes());
        const std::vector<MultiViewLane> lanes = lanes_at(node.value());
        status = victims_left
                     ? MultiViewJoinAggregateChunkPair(
                           victim_chunk, RightOperand{partner.get(), q, &grid},
                           compiled_set, lanes, /*multiplicity=*/-1)
                     : MultiViewJoinAggregateChunkPair(
                           *partner, RightOperand{&victim_chunk, m, &grid},
                           compiled_set, lanes, /*multiplicity=*/-1);
        if (!status.ok()) return;
        ++stats.retraction_joins;
      }
    });
    return status;
  };
  // Pass B (before erasure): retract the victims' own left-side
  // contributions — kernel(victims, base incl. victims, -1), evaluated at
  // each base partner's node (the victim snapshot ships from the
  // coordinator).
  AVM_RETURN_IF_ERROR(retract(footprint, /*victims_left=*/true));
  AVM_RETURN_IF_ERROR(EraseVictims(&base, victims));
  // Pass A (after erasure): surviving cells retract their deleted partners
  // — kernel(survivor chunks seeing a victim chunk, victims, -1), at the
  // survivor's node.
  AVM_RETURN_IF_ERROR(retract(reflected, /*victims_left=*/false));

  // Per member: merge its retractions and GC its identity cells, exactly as
  // its solo deletion would.
  for (size_t k = 0; k < num_views; ++k) {
    std::set<std::pair<ChunkId, uint64_t>> touched;
    AVM_RETURN_IF_ERROR(
        MergeRetractions(set->view(k), &fragments_by_node[k], &touched));
    CollectIdentityCells(set->view(k), touched, &stats);
  }

  stats.maintenance_seconds = before.MakespanSince(*cluster);
  return stats;
}

}  // namespace avm
