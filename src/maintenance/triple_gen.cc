#include "maintenance/triple_gen.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "join/pair_enumeration.h"

namespace avm {

namespace {

/// Accumulates directional pair requirements into unordered JoinPairs and
/// the side metadata the planners need. `view_arrays` are the view arrays
/// the pairs maintain — one for a single view, K co-gridded arrays for a
/// view set (their bytes sum per view chunk).
class PairCollector {
 public:
  PairCollector(const MaterializedView& view,
                std::span<const DistributedArray* const> view_arrays,
                const DistributedArray* ldelta, const DistributedArray* rdelta)
      : view_(view),
        view_arrays_(view_arrays),
        ldelta_(ldelta),
        rdelta_(rdelta) {}

  /// Records the kernel direction left -> right and its affected view
  /// chunks (triples (left, right, v) for v in the left operand's view
  /// targets).
  void AddDirection(MChunkRef left, MChunkRef right) {
    MChunkRef a = left;
    MChunkRef b = right;
    bool ab = true;
    if (b < a) {
      std::swap(a, b);
      ab = false;
    }
    JoinPair& pair = pairs_[{a, b}];
    pair.a = a;
    pair.b = b;
    auto& targets = ab ? pair.view_targets_ab : pair.view_targets_ba;
    auto& flag = ab ? pair.dir_ab : pair.dir_ba;
    if (flag) return;  // direction already recorded
    flag = true;
    targets = EnumerateViewTargets(GridOf(left), left.id,
                                   view_.definition().group_dims,
                                   view_.array().grid());
  }

  /// Finalizes the TripleSet: snapshots chunk sizes and locations.
  Result<TripleSet> Finish() {
    TripleSet set;
    set.pairs.reserve(pairs_.size());
    for (auto& [key, pair] : pairs_) {
      AVM_RETURN_IF_ERROR(RecordChunk(pair.a, &set));
      AVM_RETURN_IF_ERROR(RecordChunk(pair.b, &set));
      pair.bytes = set.bytes.at(pair.a) + set.bytes.at(pair.b);
      for (ChunkId v : pair.AllViewTargets()) RecordViewChunk(v, &set);
      set.pairs.push_back(std::move(pair));
    }
    return set;
  }

 private:
  const DistributedArray& ArrayOf(MChunkRef ref) const {
    switch (ref.side) {
      case ChunkSide::kLeftBase:
        return view_.left_base();
      case ChunkSide::kRightBase:
        return view_.right_base();
      case ChunkSide::kLeftDelta:
        return *ldelta_;
      case ChunkSide::kRightDelta:
        return *rdelta_;
    }
    return view_.left_base();  // unreachable
  }

  const ChunkGrid& GridOf(MChunkRef ref) const { return ArrayOf(ref).grid(); }

  Status RecordChunk(MChunkRef ref, TripleSet* set) {
    if (set->bytes.count(ref) > 0) return Status::OK();
    const DistributedArray& array = ArrayOf(ref);
    AVM_ASSIGN_OR_RETURN(NodeId node,
                         array.catalog()->NodeOf(array.id(), ref.id));
    set->location[ref] = node;
    set->bytes[ref] = array.catalog()->ChunkBytes(array.id(), ref.id);
    // Residency snapshot for the disk-aware cost terms: a chunk spilled at
    // its holding node pays DiskSeconds on first touch. Planning-time only;
    // the probe never faults the chunk in.
    if (array.cluster()->store(node).IsSpilled(array.id(), ref.id)) {
      set->spilled.insert(ref);
    }
    return Status::OK();
  }

  void RecordViewChunk(ChunkId v, TripleSet* set) {
    if (set->view_location.count(v) > 0 || recorded_missing_.count(v) > 0) {
      return;
    }
    // Location (and spill state) come from the first member that has the
    // chunk — the primary, except right after a member-only materialization.
    // Bytes sum every member's chunk v: the planners see the full K-view
    // merge output behind one co-location decision.
    bool found = false;
    uint64_t bytes = 0;
    for (const DistributedArray* va : view_arrays_) {
      auto node = va->catalog()->NodeOf(va->id(), v);
      if (!node.ok()) continue;
      bytes += va->catalog()->ChunkBytes(va->id(), v);
      if (found) continue;
      found = true;
      set->view_location[v] = node.value();
      if (va->cluster()->store(node.value()).IsSpilled(va->id(), v)) {
        set->view_spilled.insert(v);
      }
    }
    if (found) {
      set->view_bytes[v] = bytes;
    } else {
      recorded_missing_.insert(v);
    }
  }

  const MaterializedView& view_;
  std::span<const DistributedArray* const> view_arrays_;
  const DistributedArray* ldelta_;
  const DistributedArray* rdelta_;
  std::map<std::pair<MChunkRef, MChunkRef>, JoinPair> pairs_;
  std::set<ChunkId> recorded_missing_;
};

/// Enumerates the *left-array* chunks whose cells can see (under σ around
/// their mapped image) any cell of the right-space chunk box `right_box`:
/// the chunks overlapping the preimage of right_box expanded by σ⁻¹'s
/// bounding box. Correct for any structural mapping.
void ForEachLeftChunkSeeing(const ChunkGrid& left_grid, const Box& left_domain,
                            const DimMapping& mapping,
                            const Shape& reflected_shape, const Box& right_box,
                            const std::function<bool(ChunkId)>& exists,
                            const std::function<void(ChunkId)>& fn) {
  if (reflected_shape.empty()) return;
  const Box shape_box = reflected_shape.BoundingBox();
  Box probe = right_box;
  for (size_t d = 0; d < probe.lo.size(); ++d) {
    probe.lo[d] += shape_box.lo[d];
    probe.hi[d] += shape_box.hi[d];
  }
  const Box preimage = mapping.PreimageBox(probe, left_domain);
  for (size_t d = 0; d < preimage.lo.size(); ++d) {
    if (preimage.lo[d] > preimage.hi[d]) return;  // empty preimage
  }
  left_grid.ForEachChunkOverlapping(preimage, [&](ChunkId p) {
    if (exists(p)) fn(p);
  });
}

Box DomainBoxOf(const ArraySchema& schema) {
  Box box;
  box.lo.resize(schema.num_dims());
  box.hi.resize(schema.num_dims());
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    box.lo[d] = schema.dims()[d].lo;
    box.hi[d] = schema.dims()[d].hi;
  }
  return box;
}

}  // namespace

Result<TripleSet> GenerateTriples(const ViewSet& set,
                                  const DistributedArray* left_delta,
                                  const DistributedArray* right_delta,
                                  TripleGenCache* cache) {
  if (set.empty()) return Status::FailedPrecondition("empty view set");
  // Pairs are enumerated under the members' union (the view's own shape at
  // K=1) and record chunk metadata against every member's view array.
  const MaterializedView& view = *set.primary();
  const Shape& shape = set.union_shape();
  std::vector<const DistributedArray*> view_arrays;
  view_arrays.reserve(set.size());
  for (const MaterializedView* member : set.views()) {
    view_arrays.push_back(&member->array());
  }
  const ViewDefinition& def = view.definition();
  if (def.IsSelfJoin() && right_delta != nullptr) {
    return Status::InvalidArgument(
        "a self-join view takes a single (left) delta");
  }
  if (left_delta == nullptr && right_delta == nullptr) {
    return Status::InvalidArgument("no delta provided");
  }
  if (left_delta != nullptr &&
      !left_delta->schema().StructurallyEquals(view.left_base().schema())) {
    return Status::InvalidArgument("left delta schema mismatch");
  }
  if (right_delta != nullptr &&
      !right_delta->schema().StructurallyEquals(view.right_base().schema())) {
    return Status::InvalidArgument("right delta schema mismatch");
  }

  PairCollector collector(view, view_arrays, left_delta, right_delta);
  const Shape reflected = shape.Reflected();
  const ChunkGrid& lgrid = view.left_base().grid();
  const ChunkGrid& rgrid = view.right_base().grid();
  const Catalog* catalog = view.left_base().catalog();
  const Box left_domain = DomainBoxOf(view.left_base().schema());

  auto base_right_exists = [&](ChunkId q) {
    return catalog->HasChunk(view.right_base().id(), q);
  };
  auto base_left_exists = [&](ChunkId q) {
    return catalog->HasChunk(view.left_base().id(), q);
  };

  if (def.IsSelfJoin()) {
    const DistributedArray& delta = *left_delta;
    auto delta_exists = [&](ChunkId q) {
      return catalog->HasChunk(delta.id(), q);
    };
    // Identity self-joins over the (necessarily aligned) base grid use the
    // exact chunk footprint: non-convex shapes prune the pairs their
    // bounding box over-approximates. The footprints only depend on the
    // union shape, so a caller-provided cache persists them across batches
    // until a member joins the set.
    TripleGenCache local_cache;
    TripleGenCache* fps = cache != nullptr ? cache : &local_cache;
    if (fps->num_views != set.size() && def.mapping.IsIdentity()) {
      AVM_ASSIGN_OR_RETURN(
          ChunkFootprint fp,
          ChunkFootprint::Compute(shape, lgrid.extents()));
      fps->footprint = std::move(fp);
      AVM_ASSIGN_OR_RETURN(
          ChunkFootprint rfp,
          ChunkFootprint::Compute(reflected, lgrid.extents()));
      fps->reflected = std::move(rfp);
      fps->num_views = set.size();
    }
    const std::optional<ChunkFootprint>& footprint = fps->footprint;
    const std::optional<ChunkFootprint>& reflected_footprint = fps->reflected;
    auto partners = [&](ChunkId p, const Shape& shape,
                        const ChunkFootprint* fp,
                        const std::function<bool(ChunkId)>& exists) {
      return fp != nullptr
                 ? EnumerateJoinPartnersExact(lgrid, p, *fp, exists)
                 : EnumerateJoinPartners(lgrid, p, def.mapping, shape, rgrid,
                                         exists);
    };
    for (ChunkId p : catalog->ChunkIdsOf(delta.id())) {
      const MChunkRef pref{ChunkSide::kLeftDelta, p};
      // (1) New cells gain partners from existing cells: kernel(∆p, base q).
      // Base chunks are labeled kLeftBase in a self-join (there is only one
      // base population) so the two directions of a pair dedup onto one
      // co-location/join unit.
      for (ChunkId q : partners(p, shape,
                                footprint ? &*footprint : nullptr,
                                base_right_exists)) {
        collector.AddDirection(pref, MChunkRef{ChunkSide::kLeftBase, q});
      }
      // (2) Existing cells gain partners from new cells: kernel(base q, ∆p),
      // where q ranges over the left chunks that can see ∆p under σ —
      // equivalently, the reflected shape's partners of ∆p.
      if (reflected_footprint) {
        for (ChunkId q : partners(p, reflected, &*reflected_footprint,
                                  base_left_exists)) {
          collector.AddDirection(MChunkRef{ChunkSide::kLeftBase, q}, pref);
        }
      } else {
        ForEachLeftChunkSeeing(lgrid, left_domain, def.mapping, reflected,
                               rgrid.ChunkBoxOfId(p), base_left_exists,
                               [&](ChunkId q) {
                                 collector.AddDirection(
                                     MChunkRef{ChunkSide::kLeftBase, q},
                                     pref);
                               });
      }
      // (3) New cells gain partners from new cells: kernel(∆p, ∆q). Every
      // ordered delta pair is covered by iterating p over all delta chunks.
      for (ChunkId q : partners(p, shape,
                                footprint ? &*footprint : nullptr,
                                delta_exists)) {
        collector.AddDirection(pref, MChunkRef{ChunkSide::kLeftDelta, q});
      }
    }
  } else {
    // Two-array view: contributions always group by the left array.
    if (left_delta != nullptr) {
      auto rdelta_exists = [&](ChunkId q) {
        return right_delta != nullptr &&
               catalog->HasChunk(right_delta->id(), q);
      };
      for (ChunkId p : catalog->ChunkIdsOf(left_delta->id())) {
        const MChunkRef pref{ChunkSide::kLeftDelta, p};
        // ∆α ./ β
        for (ChunkId q : EnumerateJoinPartners(lgrid, p, def.mapping,
                                               shape, rgrid,
                                               base_right_exists)) {
          collector.AddDirection(pref, MChunkRef{ChunkSide::kRightBase, q});
        }
        // ∆α ./ ∆β
        for (ChunkId q : EnumerateJoinPartners(lgrid, p, def.mapping,
                                               shape, rgrid,
                                               rdelta_exists)) {
          collector.AddDirection(pref, MChunkRef{ChunkSide::kRightDelta, q});
        }
      }
    }
    if (right_delta != nullptr) {
      // α ./ ∆β: the existing left-array chunks that see the right delta.
      for (ChunkId q : catalog->ChunkIdsOf(right_delta->id())) {
        ForEachLeftChunkSeeing(
            lgrid, left_domain, def.mapping, reflected, rgrid.ChunkBoxOfId(q),
            base_left_exists, [&](ChunkId p) {
              collector.AddDirection(MChunkRef{ChunkSide::kLeftBase, p},
                                     MChunkRef{ChunkSide::kRightDelta, q});
            });
      }
    }
  }
  return collector.Finish();
}

}  // namespace avm
