#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "agg/aggregates.h"
#include "array/chunk.h"
#include "array/chunk_grid.h"
#include "array/coords.h"
#include "join/compiled_shape.h"
#include "join/join_kernel.h"
#include "join/mapping.h"
#include "shape/shape.h"

namespace avm {

/// K similarity-join shapes compiled together against one right-grid
/// geometry for the shared delta pass: the kernel probes each (left cell,
/// offset) once using the *union* shape and demultiplexes every match into
/// the accepting views via a per-offset bitmask (bit k set when view k's
/// shape contains that offset).
///
/// The union's offsets are kept in the shape's deterministic lexicographic
/// order, so the subsequence accepted by view k is exactly view k's own
/// offset order — which is what makes the demultiplexed per-view folds
/// bit-identical to running the single-view kernel per view.
///
/// A one-shape set is the single view: it holds just that shape's cached
/// CompiledShape (no union, no masks), and the kernel hands its one lane
/// to JoinAggregateChunkPair.
class CompiledViewSet {
 public:
  /// Compiles the union of `shapes` (one per view, same dimensionality)
  /// against `right_grid` and derives the per-offset acceptance masks.
  /// When `prefetch` is given the union compilation goes through the
  /// pass-scoped memo instead of straight to the global cache. At most 64
  /// shapes (one mask bit per view).
  static Result<CompiledViewSet> Create(std::span<const Shape* const> shapes,
                                        const DimMapping& mapping,
                                        const ChunkGrid& right_grid,
                                        ShapePrefetch* prefetch = nullptr);

  size_t num_views() const { return shape_sizes_.size(); }

  /// The union compilation the shared probe pass runs with.
  const CompiledShape& union_compiled() const { return *union_compiled_; }
  const Shape& union_shape() const { return union_compiled_->shape(); }

  /// Acceptance mask per union offset, aligned with
  /// union_compiled().linear_deltas() (lexicographic offset order). Empty
  /// for a one-shape set.
  const std::vector<uint64_t>& offset_masks() const { return masks_; }

  /// Acceptance mask of an arbitrary delta vector (0 when the delta is in
  /// no view's shape). The scan path's one-hash replacement for K
  /// per-view Shape::Contains tests.
  uint64_t MaskOfDelta(const CellCoord& delta) const {
    auto it = mask_by_delta_.find(delta);
    return it == mask_by_delta_.end() ? 0 : it->second;
  }

  /// |σ_k|: view k's own shape size, feeding the per-view probe-vs-scan
  /// strategy choice (which must match the single-view kernel's choice for
  /// bit-identity).
  size_t view_shape_size(size_t k) const { return shape_sizes_[k]; }

 private:
  CompiledViewSet(std::shared_ptr<const CompiledShape> union_compiled,
                  std::vector<uint64_t> masks,
                  std::unordered_map<CellCoord, uint64_t, CoordHash> by_delta,
                  std::vector<size_t> shape_sizes)
      : union_compiled_(std::move(union_compiled)),
        masks_(std::move(masks)),
        mask_by_delta_(std::move(by_delta)),
        shape_sizes_(std::move(shape_sizes)) {}

  std::shared_ptr<const CompiledShape> union_compiled_;
  std::vector<uint64_t> masks_;  // per union offset, lex order
  std::unordered_map<CellCoord, uint64_t, CoordHash> mask_by_delta_;
  std::vector<size_t> shape_sizes_;
};

/// One view's output channel of the shared pass: its aggregate layout, its
/// grouping/grid target, and the fragment map its partial states accumulate
/// into. Lanes are indexed like CompiledViewSet's mask bits.
struct MultiViewLane {
  const AggregateLayout* layout = nullptr;
  ViewTarget target;
  std::map<ChunkId, Chunk>* out_fragments = nullptr;
};

/// The shared delta pass for one chunk pair: joins `left` against the right
/// chunk once on behalf of every lane. Left cells are visited once; each
/// (cell, union-offset) probe is issued once; matches fold into each
/// accepting lane's fragment builder.
///
/// Bit-identity contract: for every lane k the resulting fragments are
/// bit-identical to running JoinAggregateChunkPair(left, right, σ_k, ...)
/// alone. This holds because (a) each view's accepted matches arrive in its
/// own lexicographic offset order (union order filtered by mask), (b) the
/// probe-vs-scan strategy is chosen PER VIEW with the same rule as the
/// single-view kernel, so each view folds matches in the order its solo run
/// would, and (c) linear layouts use the same closed-form count /
/// sequential sum chains the dense interior already proved bit-equal to
/// per-match folds.
///
/// `lanes.size()` must equal `set.num_views()`. `multiplicity` is +1/-1 as
/// in the single-view kernel. One lane is the single-view kernel call.
Status MultiViewJoinAggregateChunkPair(const Chunk& left,
                                       const RightOperand& right,
                                       const CompiledViewSet& set,
                                       std::span<const MultiViewLane> lanes,
                                       int multiplicity);

}  // namespace avm
