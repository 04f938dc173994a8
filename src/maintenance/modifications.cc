#include "maintenance/modifications.h"

#include <map>
#include <set>
#include <vector>

#include "join/compiled_shape.h"
#include "join/fragment_merge.h"
#include "join/join_kernel.h"

namespace avm {

namespace {

/// True when every aggregate is COUNT, i.e. value changes cannot affect the
/// view.
bool CountOnly(const AggregateLayout& layout) {
  for (const auto& spec : layout.specs()) {
    if (spec.fn != AggregateFunction::kCount) return false;
  }
  return true;
}

/// Writes the new values of every modified cell into its base chunk's
/// primary copy.
Status UpsertModifiedValues(DistributedArray* base,
                            const SparseArray& mod_new) {
  Catalog* catalog = base->catalog();
  Cluster* cluster = base->cluster();
  Status status = Status::OK();
  mod_new.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    auto node = catalog->NodeOf(base->id(), id);
    if (!node.ok()) {
      status = Status::Internal("modified cell's base chunk disappeared");
      return;
    }
    ChunkStore& store = cluster->store(node.value());
    // Pin-while-mutating.
    const MutableChunkHandle target = store.PinMutable(base->id(), id);
    if (target == nullptr) {
      status = Status::Internal("base chunk missing from its primary store");
      return;
    }
    status = target->UpsertChunk(chunk);
    if (!status.ok()) return;
    target->MaybeAdaptRepresentation(base->grid(), id);
    catalog->SetChunkBytes(base->id(), id, target->SizeBytes());
  });
  return status;
}

}  // namespace

Result<ModificationStats> SplitInsertsAndModifications(
    const DistributedArray& base, const SparseArray& raw_delta,
    SparseArray* inserts, SparseArray* mod_old, SparseArray* mod_new) {
  if (inserts == nullptr || mod_old == nullptr || mod_new == nullptr) {
    return Status::InvalidArgument("null output array");
  }
  ModificationStats stats;
  const Catalog* catalog = base.catalog();
  const Cluster* cluster = base.cluster();
  const ChunkGrid& grid = base.grid();
  Status status = Status::OK();
  CellCoord coord;
  raw_delta.ForEachCell([&](std::span<const int64_t> c,
                            std::span<const double> values) {
    if (!status.ok()) return;
    coord.assign(c.begin(), c.end());
    const ChunkId id = grid.IdOfCell(coord);
    const double* existing = nullptr;
    // The handle outlives every use of `existing` below: the raw cell
    // pointer stays valid only while the chunk is pinned.
    ChunkHandle chunk;
    auto node = catalog->NodeOf(base.id(), id);
    if (node.ok()) {
      chunk = cluster->store(node.value()).GetHandle(base.id(), id);
      if (chunk != nullptr) {
        existing = chunk->GetCell(grid.InChunkOffset(coord));
      }
    }
    if (existing == nullptr) {
      status = inserts->Set(coord, values);
      return;
    }
    ++stats.mod_cells;
    status = mod_old->Set(coord, {existing, values.size()});
    if (status.ok()) status = mod_new->Set(coord, values);
  });
  if (!status.ok()) return status;
  return stats;
}

Result<ModificationStats> ApplyRightSideModifications(
    MaterializedView* view, const SparseArray& mod_old,
    const SparseArray& mod_new, ShapePrefetch* prefetch) {
  ModificationStats stats;
  stats.mod_cells = mod_new.NumCells();
  if (stats.mod_cells == 0) return stats;

  DistributedArray& right = view->right_base();
  DistributedArray& left = view->left_base();
  Cluster* cluster = right.cluster();
  Catalog* catalog = right.catalog();
  const AggregateLayout& layout = view->layout();
  const ViewDefinition& def = view->definition();

  if (!CountOnly(layout)) {
    if (!layout.SupportsRetraction()) {
      return Status::FailedPrecondition(
          "overwrites of existing cells require retractable aggregates "
          "(COUNT/SUM/AVG); this view uses MIN/MAX");
    }
    // Correction pass: every left chunk that can see a modified cell runs
    // the kernel against the old values (-1) and the new values (+1).
    const Shape reflected = def.shape.Reflected();
    const Box shape_box = reflected.BoundingBox();
    Box left_domain;
    const auto& ldims = left.schema().dims();
    left_domain.lo.resize(ldims.size());
    left_domain.hi.resize(ldims.size());
    for (size_t d = 0; d < ldims.size(); ++d) {
      left_domain.lo[d] = ldims[d].lo;
      left_domain.hi[d] = ldims[d].hi;
    }
    const ViewTarget target{&def.group_dims, &view->array().grid()};
    std::map<NodeId, std::map<ChunkId, Chunk>> fragments_by_node;
    std::set<std::pair<ChunkId, NodeId>> shipped;
    // One shape compilation serves the -1 and +1 kernel runs of every
    // (left chunk, modified chunk) pair below; a pass-scoped prefetch shares
    // it with the batch's other kernels.
    std::shared_ptr<const CompiledShape> compiled;
    if (prefetch != nullptr) {
      AVM_ASSIGN_OR_RETURN(compiled,
                           prefetch->Get(def.shape, def.mapping, right.grid()));
    } else {
      AVM_ASSIGN_OR_RETURN(compiled, CompiledShapeCache::Global().Get(
                                         def.shape, def.mapping, right.grid()));
    }

    Status status = Status::OK();
    mod_old.ForEachChunk([&](ChunkId m, const Chunk& old_chunk) {
      if (!status.ok()) return;
      const Chunk* new_chunk = mod_new.GetChunk(m);
      Box probe = right.grid().ChunkBoxOfId(m);
      for (size_t d = 0; d < probe.lo.size(); ++d) {
        probe.lo[d] += shape_box.lo[d];
        probe.hi[d] += shape_box.hi[d];
      }
      const Box preimage = def.mapping.PreimageBox(probe, left_domain);
      for (size_t d = 0; d < preimage.lo.size(); ++d) {
        if (preimage.lo[d] > preimage.hi[d]) return;
      }
      left.grid().ForEachChunkOverlapping(preimage, [&](ChunkId l) {
        if (!status.ok()) return;
        auto node = catalog->NodeOf(left.id(), l);
        if (!node.ok()) return;  // empty left chunk
        const ChunkHandle left_chunk =
            cluster->store(node.value()).GetHandle(left.id(), l);
        if (left_chunk == nullptr) {
          status = Status::Internal("left chunk missing from its store");
          return;
        }
        // The new values ship from the coordinator once per (chunk, node);
        // the old values are read from the resident base chunk.
        if (shipped.insert({m, node.value()}).second) {
          cluster->ChargeNetwork(kCoordinatorNode, new_chunk->SizeBytes());
        }
        cluster->ChargeJoin(node.value(), left_chunk->SizeBytes() +
                                              old_chunk.SizeBytes() +
                                              new_chunk->SizeBytes());
        const RightOperand old_op{&old_chunk, m, &right.grid()};
        const RightOperand new_op{new_chunk, m, &right.grid()};
        auto& fragments = fragments_by_node[node.value()];
        status = JoinAggregateChunkPair(*left_chunk, old_op, *compiled,
                                        layout, target,
                                        /*multiplicity=*/-1, &fragments);
        if (!status.ok()) return;
        status = JoinAggregateChunkPair(*left_chunk, new_op, *compiled,
                                        layout, target,
                                        /*multiplicity=*/1, &fragments);
        ++stats.correction_joins;
      });
    });
    AVM_RETURN_IF_ERROR(status);

    for (auto& [producer, fragments] : fragments_by_node) {
      for (auto& [v, fragment] : fragments) {
        auto home_result = catalog->NodeOf(view->array().id(), v);
        const NodeId home =
            home_result.ok()
                ? home_result.value()
                : catalog->PlaceByStrategy(view->array().id(), v,
                                           cluster->num_workers());
        if (producer != home) {
          cluster->ChargeNetwork(producer, fragment.SizeBytes());
        }
        AVM_RETURN_IF_ERROR(
            MergeStateFragment(&view->array(), v, fragment, layout, home));
        ++stats.fragments_merged;
      }
    }
  }

  AVM_RETURN_IF_ERROR(UpsertModifiedValues(&right, mod_new));
  return stats;
}

Status ApplyLeftSideModifications(MaterializedView* view,
                                  const SparseArray& mod_new) {
  if (view->definition().IsSelfJoin()) {
    return Status::InvalidArgument(
        "self-join modifications must go through "
        "ApplyRightSideModifications");
  }
  return UpsertModifiedValues(&view->left_base(), mod_new);
}

}  // namespace avm
