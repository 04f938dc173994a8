#pragma once

#include <optional>

#include "cluster/distributed_array.h"
#include "common/result.h"
#include "maintenance/types.h"
#include "shape/chunk_footprint.h"
#include "view/materialized_view.h"
#include "view/view_set.h"

namespace avm {

/// Footprints of a view set's union shape, persisted across batches:
/// computing them is O(|σ| 2^d) and the union only changes when a member
/// joins the set, so a ViewMaintainer reuses one cache for its lifetime.
struct TripleGenCache {
  std::optional<ChunkFootprint> footprint;
  std::optional<ChunkFootprint> reflected;
  /// Set size the footprints were computed for; 0 before the first batch.
  size_t num_views = 0;
};

/// Generates the update triples U_0 for one batch of a view set — the
/// coordinator's metadata-only preprocessing step. For every delta chunk
/// it enumerates, from the catalog alone:
///
///  - the base/delta chunks its cells may join under the shape σ
///    (new view cells: directions with the delta as the group-by operand),
///  - the base chunks whose *existing* view cells gain contributions from
///    the delta (directions enumerated under the reflected shape σ⁻¹ —
///    required for asymmetric shapes such as PTF-5's time look-back),
///  - and the affected view chunks (the v of each (p, q, v) triple).
///
/// σ is the *union* of the members' shapes (a pair joins iff any member
/// needs it), so one transfer and one probe of a base chunk amortize across
/// every view that accepts it; at K=1 it is the view's own shape. View-chunk
/// bytes sum each member's chunk — the cost model charges shared operands
/// once but sees the full K-view merge output.
///
/// `left_delta`/`right_delta` are delta arrays whose chunks sit at the
/// coordinator; `right_delta` must be null for self-join views. Either may
/// be null ("no updates on that side"). Results are deterministic: pairs are
/// sorted by (a, b). `cache`, if given, persists the union footprints.
Result<TripleSet> GenerateTriples(const ViewSet& set,
                                  const DistributedArray* left_delta,
                                  const DistributedArray* right_delta,
                                  TripleGenCache* cache = nullptr);

}  // namespace avm

