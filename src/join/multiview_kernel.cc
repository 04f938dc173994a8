#include "join/multiview_kernel.h"

#include <bit>
#include <utility>

#include "common/check.h"
#include "join/fragment_builder.h"
#include "telemetry/metrics.h"

namespace avm {

using join_internal::AnalyzeLayout;
using join_internal::FragmentBuilder;
using join_internal::LinearTerms;

Result<CompiledViewSet> CompiledViewSet::Create(
    std::span<const Shape* const> shapes, const DimMapping& mapping,
    const ChunkGrid& right_grid, ShapePrefetch* prefetch) {
  if (shapes.empty()) {
    return Status::InvalidArgument("view set compiles at least one shape");
  }
  if (shapes.size() > 64) {
    return Status::InvalidArgument(
        "acceptance masks carry at most 64 views");
  }
  auto compile = [&](const Shape& shape)
      -> Result<std::shared_ptr<const CompiledShape>> {
    if (prefetch != nullptr) return prefetch->Get(shape, mapping, right_grid);
    return CompiledShapeCache::Global().Get(shape, mapping, right_grid);
  };
  if (shapes.size() == 1) {
    AVM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledShape> compiled,
                         compile(*shapes.front()));
    return CompiledViewSet(std::move(compiled), {}, {},
                           {shapes.front()->size()});
  }
  Shape union_shape = *shapes.front();
  for (size_t k = 1; k < shapes.size(); ++k) {
    if (shapes[k]->num_dims() != union_shape.num_dims()) {
      return Status::InvalidArgument(
          "view shapes must share one dimensionality");
    }
    AVM_ASSIGN_OR_RETURN(union_shape, Shape::Union(union_shape, *shapes[k]));
  }
  AVM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledShape> compiled,
                       compile(union_shape));

  // Per-offset acceptance masks, aligned with the union's lexicographic
  // offset order (and therefore with linear_deltas()).
  std::vector<uint64_t> masks;
  masks.reserve(union_shape.size());
  std::unordered_map<CellCoord, uint64_t, CoordHash> by_delta;
  by_delta.reserve(union_shape.size());
  for (const CellCoord& offset : union_shape.offsets()) {
    uint64_t mask = 0;
    for (size_t k = 0; k < shapes.size(); ++k) {
      if (shapes[k]->Contains(offset)) mask |= uint64_t{1} << k;
    }
    masks.push_back(mask);
    by_delta.emplace(offset, mask);
  }
  std::vector<size_t> sizes;
  sizes.reserve(shapes.size());
  for (const Shape* shape : shapes) sizes.push_back(shape->size());
  return CompiledViewSet(std::move(compiled), std::move(masks),
                         std::move(by_delta), std::move(sizes));
}

namespace {

/// One matched right cell of the current left cell: its value lanes and the
/// probe-view subset that accepts it. Collected in union delta order, so
/// filtering by one view's bit yields that view's own fold order.
struct Match {
  const double* values = nullptr;
  uint64_t mask = 0;
};

}  // namespace

Status MultiViewJoinAggregateChunkPair(const Chunk& left,
                                       const RightOperand& right,
                                       const CompiledViewSet& set,
                                       std::span<const MultiViewLane> lanes,
                                       int multiplicity) {
  AVM_CHECK(right.chunk != nullptr && right.grid != nullptr);
  if (lanes.size() != set.num_views()) {
    return Status::InvalidArgument("lane count does not match view count");
  }
  if (multiplicity != 1 && multiplicity != -1) {
    return Status::InvalidArgument("multiplicity must be +1 or -1");
  }
  if (lanes.size() == 1) {
    const MultiViewLane& lane = lanes.front();
    return JoinAggregateChunkPair(left, right, set.union_compiled(),
                                  *lane.layout, lane.target, multiplicity,
                                  lane.out_fragments);
  }
  if (set.union_shape().empty() || left.empty() || right.chunk->empty()) {
    return Status::OK();
  }
  const size_t num_views = lanes.size();
  for (const MultiViewLane& lane : lanes) {
    AVM_CHECK(lane.layout != nullptr && lane.out_fragments != nullptr);
    AVM_CHECK(lane.target.group_dims != nullptr &&
              lane.target.view_grid != nullptr);
  }

  // One fragment builder and one linear decomposition per lane; the
  // probe-vs-scan strategy is chosen PER VIEW with the single-view rule so
  // each view's fold order matches its solo run exactly.
  std::vector<FragmentBuilder> builders;
  builders.reserve(num_views);
  std::vector<LinearTerms> terms;
  terms.reserve(num_views);
  uint64_t probe_mask = 0;
  uint64_t scan_mask = 0;
  for (size_t k = 0; k < num_views; ++k) {
    builders.emplace_back(*lanes[k].layout, lanes[k].target, left.num_cells(),
                          lanes[k].out_fragments);
    terms.push_back(AnalyzeLayout(*lanes[k].layout));
    const JoinStrategy strategy =
        ChooseJoinStrategy(set.view_shape_size(k), right.chunk->num_cells(),
                           right.chunk->rep());
    if (strategy == JoinStrategy::kProbeOffsets) {
      probe_mask |= uint64_t{1} << k;
    } else {
      scan_mask |= uint64_t{1} << k;
    }
  }

  const CompiledShape& compiled = set.union_compiled();
  const DimMapping& mapping = compiled.mapping();
  const Box right_box = right.grid->ChunkBoxOfId(right.chunk_id);
  const size_t nd = compiled.num_dims();
  const size_t num_attrs = right.chunk->num_attrs();
  const double m = static_cast<double>(multiplicity);
  const bool right_dense = right.chunk->rep() == ChunkRep::kDense;
  DenseChunkView dv;
  if (right_dense) dv = right.chunk->dense_view();
  CellCoord base(nd);  // image of the left cell in right space

  uint64_t interior_cells = 0;
  uint64_t boundary_cells = 0;
  uint64_t probes = 0;
  uint64_t scanned_cells = 0;

  if (probe_mask != 0) {
    const Box interior = compiled.InteriorBox(right_box);
    const std::vector<int64_t>& deltas = compiled.linear_deltas();
    const std::vector<uint64_t>& masks = set.offset_masks();
    const int64_t* components = compiled.offset_components();
    const std::vector<int64_t>& extents = right.grid->extents();
    // Scratch reused across left cells: the matches of one probe
    // neighborhood, in union delta order.
    std::vector<Match> matched;
    matched.reserve(deltas.size());

    Status status = left.VisitCells([&](uint64_t,
                                        std::span<const int64_t> left_coord,
                                        std::span<const double>) -> Status {
      mapping.ApplyInto(left_coord, &base);
      for (uint64_t bits = probe_mask; bits != 0; bits &= bits - 1) {
        builders[static_cast<size_t>(std::countr_zero(bits))].BeginLeftCell(
            left_coord);
      }
      bool is_interior = true;
      for (size_t d = 0; d < nd; ++d) {
        if (base[d] < interior.lo[d] || base[d] > interior.hi[d]) {
          is_interior = false;
          break;
        }
      }
      probes += deltas.size();
      matched.clear();
      if (is_interior) {
        ++interior_cells;
        // Shared fast path: every union probe is base_offset + delta. One
        // occupancy test per probe serves every accepting view.
        const int64_t base_offset =
            static_cast<int64_t>(compiled.OffsetInChunk(base, right_box));
        if (right_dense) {
          for (size_t i = 0; i < deltas.size(); ++i) {
            const uint64_t off =
                static_cast<uint64_t>(base_offset + deltas[i]);
            if (((dv.bitmap[off >> 6] >> (off & 63)) & 1u) == 0) continue;
            matched.push_back(
                Match{dv.lanes + off * num_attrs, masks[i] & probe_mask});
          }
        } else {
          for (size_t i = 0; i < deltas.size(); ++i) {
            const double* values = right.chunk->GetCell(
                static_cast<uint64_t>(base_offset + deltas[i]));
            if (values == nullptr) continue;
            matched.push_back(Match{values, masks[i] & probe_mask});
          }
        }
      } else {
        ++boundary_cells;
        // Boundary path: per-dimension checks against the chunk box, then
        // the same one-test-serves-all collection.
        const int64_t* offset = components;
        for (size_t i = 0; i < deltas.size(); ++i, offset += nd) {
          uint64_t probe_offset = 0;
          bool inside = true;
          for (size_t d = 0; d < nd; ++d) {
            const int64_t p = base[d] + offset[d];
            if (p < right_box.lo[d] || p > right_box.hi[d]) {
              inside = false;
              break;
            }
            probe_offset = probe_offset * static_cast<uint64_t>(extents[d]) +
                           static_cast<uint64_t>(p - right_box.lo[d]);
          }
          if (!inside) continue;
          const double* values = right.chunk->GetCell(probe_offset);
          if (values == nullptr) continue;
          matched.push_back(Match{values, masks[i] & probe_mask});
        }
      }
      if (matched.empty()) return Status::OK();
      // Demultiplex: each probe view folds its accepted subsequence. The
      // K-lane fold is where the shared pass pays back — the probes above
      // ran once, these folds are cheap per-view arithmetic.
      for (uint64_t bits = probe_mask; bits != 0; bits &= bits - 1) {
        const size_t k = static_cast<size_t>(std::countr_zero(bits));
        const uint64_t bit = bits & ~(bits - 1);
        if (terms[k].linear) {
          // Linear layout: closed-form count folds plus sequential sum
          // chains over the accepted matches in order — bit-identical to
          // per-match folds (integer-valued counts; same addition chain).
          uint64_t matches_k = 0;
          for (const Match& match : matched) {
            matches_k += (match.mask & bit) != 0 ? 1 : 0;
          }
          if (matches_k == 0) continue;
          double* __restrict state = builders[k].Locate();
          for (const size_t slot : terms[k].count_slots) {
            state[slot] += m * static_cast<double>(matches_k);
          }
          for (const LinearTerms::SumTerm& term : terms[k].sum_terms) {
            double acc = state[term.slot];
            for (const Match& match : matched) {
              if ((match.mask & bit) == 0) continue;
              acc += m * match.values[term.attr];
            }
            state[term.slot] = acc;
          }
          continue;
        }
        for (const Match& match : matched) {
          if ((match.mask & bit) == 0) continue;
          AVM_RETURN_IF_ERROR(
              builders[k].Fold({match.values, num_attrs}, multiplicity));
        }
      }
      return Status::OK();
    });
    AVM_RETURN_IF_ERROR(status);
  }

  if (scan_mask != 0) {
    // Shared scan pass: one sweep of the right chunk per left cell serves
    // every scan-strategy view; one hash of the delta vector replaces K
    // per-view shape membership tests.
    CellCoord delta(nd);
    Status status = left.VisitCells([&](uint64_t,
                                        std::span<const int64_t> left_coord,
                                        std::span<const double>) -> Status {
      mapping.ApplyInto(left_coord, &base);
      for (uint64_t bits = scan_mask; bits != 0; bits &= bits - 1) {
        builders[static_cast<size_t>(std::countr_zero(bits))].BeginLeftCell(
            left_coord);
      }
      scanned_cells += right.chunk->num_cells();
      return right.chunk->VisitCells(
          [&](uint64_t, std::span<const int64_t> right_coord,
              std::span<const double> right_values) -> Status {
            for (size_t d = 0; d < nd; ++d) {
              delta[d] = right_coord[d] - base[d];
            }
            uint64_t mask = set.MaskOfDelta(delta) & scan_mask;
            for (; mask != 0; mask &= mask - 1) {
              AVM_RETURN_IF_ERROR(
                  builders[static_cast<size_t>(std::countr_zero(mask))].Fold(
                      right_values, multiplicity));
            }
            return Status::OK();
          });
    });
    AVM_RETURN_IF_ERROR(status);
  }

  if (TelemetryEnabled()) {
    if (probe_mask != 0) CountAdd(CounterId::kJoinProbePairs);
    if (scan_mask != 0) CountAdd(CounterId::kJoinScanPairs);
    CountAdd(CounterId::kJoinInteriorCells, interior_cells);
    CountAdd(CounterId::kJoinBoundaryCells, boundary_cells);
    CountAdd(CounterId::kJoinProbes, probes);
    CountAdd(CounterId::kJoinScannedCells, scanned_cells);
    CountAdd(CounterId::kMultiViewSharedPairs);
  }
  return Status::OK();
}

}  // namespace avm
