#include "join/fragment_merge.h"

#include <vector>

namespace avm {

Status MergeStateFragment(DistributedArray* target, ChunkId v,
                          const Chunk& fragment, const AggregateLayout& layout,
                          NodeId fallback_node) {
  if (fragment.num_attrs() != layout.num_state_slots()) {
    return Status::InvalidArgument(
        "fragment attribute count does not match the aggregate state layout");
  }
  NodeId node;
  auto existing = target->catalog()->NodeOf(target->id(), v);
  if (existing.ok()) {
    node = existing.value();
  } else {
    node = fallback_node;
    target->catalog()->AssignChunk(target->id(), v, node);
  }
  ChunkStore& store = target->cluster()->store(node);
  // Pin-while-mutating: the handle keeps `dst` evict-proof across the merge.
  const MutableChunkHandle pin = store.PinOrCreate(
      target->id(), v, fragment.num_dims(), fragment.num_attrs());
  Chunk& dst = *pin;
  dst.Reserve(dst.num_cells() + fragment.num_cells());

  std::vector<double> identity(layout.num_state_slots());
  layout.InitState(identity);
  fragment.ForEachCellWithOffset([&](uint64_t offset,
                                     std::span<const int64_t> coord,
                                     std::span<const double> values) {
    double* state = dst.GetMutableCell(offset);
    if (state == nullptr) {
      dst.UpsertCell(offset, coord, identity);
      state = dst.GetMutableCell(offset);
    }
    layout.MergeState({state, layout.num_state_slots()}, values);
  });
  dst.MaybeAdaptRepresentation(target->grid(), v);
  target->catalog()->SetChunkBytes(target->id(), v, dst.SizeBytes());
  return Status::OK();
}

}  // namespace avm
