#pragma once

#include <cstdint>

#include "array/sparse_array.h"
#include "common/result.h"
#include "view/materialized_view.h"
#include "view/view_set.h"

namespace avm {

class ShapePrefetch;

/// Batch deletions — the other half of "batch updates". The paper's
/// astronomy pipelines are insert-only, but its aggregate class
/// (COUNT/SUM/AVG, Section 3) is explicitly chosen to be incrementally
/// maintainable, which includes retraction; this module completes that
/// story for identity self-join views.
///
/// Deleting a set D of existing cells changes the view in two ways:
///   1. every surviving cell x with a deleted partner y ∈ σ[x] retracts
///      f(y) from its aggregate state (a right-operand pass with
///      multiplicity -1, mirroring insert maintenance), and
///   2. the view cells keyed by deleted coordinates disappear.
/// Cells whose state returns to the aggregate identity after retraction are
/// also removed, so the maintained view stays content-equal to a
/// from-scratch recomputation over the surviving data.
///
/// Requires every aggregate to support retraction (COUNT/SUM/AVG); MIN/MAX
/// views fail with FailedPrecondition. Cells in `deleted_cells` that do not
/// exist in the base are ignored (idempotent deletes).
struct DeletionStats {
  uint64_t deleted_cells = 0;
  uint64_t retraction_joins = 0;
  uint64_t view_cells_removed = 0;
  /// Simulated makespan of the deletion batch.
  double maintenance_seconds = 0.0;
};

/// Deletes a batch of cells from the shared base of a whole ViewSet and
/// retracts their contributions from every member in one shared pass. A
/// per-view loop would be wrong — the first view's pass erases the victims,
/// so later views would retract against a base that already lost them.
/// Instead: the victims are snapshotted once, both retraction passes
/// enumerate partners under the members' *union* footprint and run the
/// K-lane kernel (views that don't accept a match fold nothing, so each
/// member's retractions are bit-identical to its solo deletion), the
/// victims are erased once between the passes, and each member merges its
/// own retractions and GCs its identity cells. Partner transfer/CPU charges
/// are paid once for all K views. `retraction_joins` counts shared kernel
/// invocations; `view_cells_removed` sums over members. Every member must
/// support retraction, and the set's views must be identity self-joins
/// (Unimplemented otherwise).
Result<DeletionStats> ApplyDeletionBatch(ViewSet* set,
                                         const SparseArray& deleted_cells,
                                         ShapePrefetch* prefetch = nullptr);

/// The single view's deletions: the one-member set's pass.
Result<DeletionStats> ApplyDeletionBatch(MaterializedView* view,
                                         const SparseArray& deleted_cells,
                                         ShapePrefetch* prefetch = nullptr);

}  // namespace avm

