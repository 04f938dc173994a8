#include "cluster/distributed_array.h"

#include <utility>

#include "common/logging.h"

namespace avm {

Result<DistributedArray> DistributedArray::Create(
    ArraySchema schema, std::unique_ptr<ChunkPlacement> placement,
    Catalog* catalog, Cluster* cluster) {
  if (catalog == nullptr || cluster == nullptr) {
    return Status::InvalidArgument("null catalog or cluster");
  }
  AVM_ASSIGN_OR_RETURN(
      ArrayId id, catalog->RegisterArray(std::move(schema),
                                         std::move(placement)));
  return DistributedArray(id, catalog, cluster);
}

Result<DistributedArray> DistributedArray::Open(const std::string& name,
                                                Catalog* catalog,
                                                Cluster* cluster) {
  if (catalog == nullptr || cluster == nullptr) {
    return Status::InvalidArgument("null catalog or cluster");
  }
  AVM_ASSIGN_OR_RETURN(ArrayId id, catalog->ArrayIdByName(name));
  return DistributedArray(id, catalog, cluster);
}

Status DistributedArray::Ingest(const SparseArray& local) {
  if (!local.schema().StructurallyEquals(schema())) {
    return Status::InvalidArgument(
        "ingest schema mismatch: expected " + schema().ToString() + ", got " +
        local.schema().ToString());
  }
  Status status = Status::OK();
  local.ForEachChunk([&](ChunkId id, const Chunk& chunk) {
    if (!status.ok()) return;
    NodeId node;
    auto existing = catalog_->NodeOf(id_, id);
    if (existing.ok()) {
      node = existing.value();
    } else {
      node = catalog_->PlaceByStrategy(id_, id, cluster_->num_workers());
    }
    status = PutChunk(id, chunk, node);
  });
  return status;
}

Status DistributedArray::PutChunk(
    ChunkId chunk, Chunk data, NodeId node) {  // avm-lint: allow(chunk-by-value)
  if (node != kCoordinatorNode &&
      (node < 0 || node >= cluster_->num_workers())) {
    return Status::InvalidArgument("bad node id " + std::to_string(node));
  }
  ChunkStore& store = cluster_->store(node);
  // Pin-while-mutating: the handle keeps the chunk evict-proof across the
  // merge.
  const MutableChunkHandle existing = store.PinMutable(id_, chunk);
  uint64_t bytes;
  if (existing != nullptr) {
    // Upsert-merge cell-wise into the resident copy.
    AVM_RETURN_IF_ERROR(existing->UpsertChunk(data));
    existing->MaybeAdaptRepresentation(grid(), chunk);
    bytes = existing->SizeBytes();
  } else {
    data.MaybeAdaptRepresentation(grid(), chunk);
    bytes = store.Put(id_, chunk, std::move(data));
  }
  catalog_->AssignChunk(id_, chunk, node);
  catalog_->SetChunkBytes(id_, chunk, bytes);
  return Status::OK();
}

Status DistributedArray::AccumulateIntoChunk(ChunkId chunk, const Chunk& delta,
                                             NodeId fallback_node) {
  NodeId node;
  auto existing = catalog_->NodeOf(id_, chunk);
  if (existing.ok()) {
    node = existing.value();
  } else {
    node = fallback_node;
    catalog_->AssignChunk(id_, chunk, node);
  }
  ChunkStore& store = cluster_->store(node);
  // Pin-while-mutating.
  const MutableChunkHandle target =
      store.PinOrCreate(id_, chunk, delta.num_dims(), delta.num_attrs());
  AVM_RETURN_IF_ERROR(target->AccumulateChunk(delta));
  target->MaybeAdaptRepresentation(grid(), chunk);
  catalog_->SetChunkBytes(id_, chunk, target->SizeBytes());
  return Status::OK();
}

Result<SparseArray> DistributedArray::Gather() const {
  SparseArray out(schema());
  CellCoord coord;
  for (ChunkId id : catalog_->ChunkIdsOf(id_)) {
    AVM_ASSIGN_OR_RETURN(const ChunkHandle chunk, GetPrimaryChunk(id));
    AVM_RETURN_IF_ERROR(chunk->VisitCells(
        [&](uint64_t, std::span<const int64_t> c,
            std::span<const double> values) {
          coord.assign(c.begin(), c.end());
          return out.Set(coord, values);
        }));
  }
  return out;
}

Result<ChunkHandle> DistributedArray::GetPrimaryChunk(ChunkId chunk) const {
  AVM_ASSIGN_OR_RETURN(NodeId node, catalog_->NodeOf(id_, chunk));
  ChunkHandle data = cluster_->store(node).GetHandle(id_, chunk);
  if (data == nullptr) {
    return Status::Internal(
        "catalog says chunk " + std::to_string(chunk) + " of array " +
        std::to_string(id_) + " is on node " + std::to_string(node) +
        " but the store does not hold it");
  }
  return data;
}

uint64_t DistributedArray::NumCells() const {
  uint64_t n = 0;
  for (ChunkId id : catalog_->ChunkIdsOf(id_)) {
    auto chunk = GetPrimaryChunk(id);
    if (chunk.ok()) n += chunk.value()->num_cells();
  }
  return n;
}

uint64_t DistributedArray::TotalBytes() const {
  uint64_t n = 0;
  for (ChunkId id : catalog_->ChunkIdsOf(id_)) {
    n += catalog_->ChunkBytes(id_, id);
  }
  return n;
}

size_t DistributedArray::NumChunks() const {
  return catalog_->ChunkIdsOf(id_).size();
}

}  // namespace avm
