#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "array/coords.h"
#include "cluster/placement.h"
#include "common/hash.h"

namespace avm {

/// During maintenance a delta chunk and the base chunk with the same id
/// coexist (e.g. ∆A4 and A4 in the paper's Figure 1), so maintenance-time
/// chunk references carry the side they live on. `kLeftDelta`/`kRightDelta`
/// distinguish the two deltas of a two-array view; a self-join view only
/// uses `kLeftDelta`.
enum class ChunkSide : uint8_t {
  kLeftBase = 0,
  kRightBase = 1,
  kLeftDelta = 2,
  kRightDelta = 3,
};

inline bool IsDeltaSide(ChunkSide side) {
  return side == ChunkSide::kLeftDelta || side == ChunkSide::kRightDelta;
}

/// A maintenance-time chunk reference: which operand population it belongs
/// to plus its chunk id on that array's grid.
struct MChunkRef {
  ChunkSide side = ChunkSide::kLeftBase;
  ChunkId id = 0;

  bool operator==(const MChunkRef& o) const {
    return side == o.side && id == o.id;
  }
  bool operator<(const MChunkRef& o) const {
    return side != o.side ? side < o.side : id < o.id;
  }
};

struct MChunkRefHash {
  size_t operator()(const MChunkRef& r) const {
    return static_cast<size_t>(
        HashMix(r.id * 4 + static_cast<uint64_t>(r.side)));
  }
};

/// One unique chunk join pair derived from the update triples. The operands
/// {a, b} are unordered for planning purposes — co-locating them once serves
/// both join directions, which is how the paper's z variables treat a pair —
/// but execution is directional because shapes may be asymmetric (PTF-5's
/// time look-back window): `dir_ab` runs the kernel with `a` as the
/// group-by (left) operand, `dir_ba` with `b`. `view_targets_ab/ba` are the
/// view chunks each direction's results merge into — the v components of
/// the paper's (p, q, v) triples.
///
/// For a two-array view, `a` is always the left-array chunk and only
/// `dir_ab` is set.
struct JoinPair {
  MChunkRef a;
  MChunkRef b;
  bool dir_ab = false;
  bool dir_ba = false;
  uint64_t bytes = 0;  // B_ab = B_a + B_b, snapshotted at planning time
  std::vector<ChunkId> view_targets_ab;
  std::vector<ChunkId> view_targets_ba;
  /// Cached union of the two target lists (filled by triple generation).
  std::vector<ChunkId> all_view_targets;

  /// Distinct view chunks affected by either direction. Returns the cached
  /// union when triple generation filled it; recomputes otherwise.
  const std::vector<ChunkId>& AllViewTargets() const;
};

/// The update triples U_0 of one batch in pair-grouped form, plus the chunk
/// population metadata the planners need (sizes and current locations).
struct TripleSet {
  std::vector<JoinPair> pairs;
  /// Current location S of every chunk referenced by a pair (base chunks at
  /// their catalog node, delta chunks at the coordinator).
  std::unordered_map<MChunkRef, NodeId, MChunkRefHash> location;
  /// Size B of every referenced chunk, in bytes.
  std::unordered_map<MChunkRef, uint64_t, MChunkRefHash> bytes;
  /// Current location of every affected *view* chunk; absent for view
  /// chunks that do not exist yet.
  std::unordered_map<ChunkId, NodeId> view_location;
  /// Size of every existing affected view chunk.
  std::unordered_map<ChunkId, uint64_t> view_bytes;
  /// Referenced chunks whose bytes are currently spilled to disk at their
  /// holding node (out-of-core operation under a BufferManager; empty when
  /// everything is resident). The planners charge CostModel::DiskSeconds
  /// for the first touch of each.
  std::unordered_set<MChunkRef, MChunkRefHash> spilled;
  /// Affected existing view chunks currently spilled at their home node.
  std::unordered_set<ChunkId> view_spilled;

  size_t num_triples() const {
    size_t n = 0;
    for (const auto& pair : pairs) n += pair.AllViewTargets().size();
    return n;
  }
};

/// Tunables of the three-stage heuristic.
struct PlannerOptions {
  /// Seed for the randomized iteration orders of Algorithms 1 and 2.
  uint64_t seed = 42;
  /// Window of past update batches kept for array chunk reassignment.
  int history_window = 5;
  /// Exponential decay of historical batch weights: W_l = decay^l.
  double history_decay = 0.5;
  /// Multiplier on the per-node CPU threshold of Algorithm 3.
  double cpu_threshold_slack = 1.0;
  /// Charge the relocation of an existing view chunk (S_v -> j) in
  /// Algorithm 2's candidate cost. The printed heuristic omits it but the
  /// MIP's x-variables include it; on by default for fidelity to Eq. (1).
  bool charge_view_move = true;
};

/// A complete maintenance plan: the solved x (transfers), z (join
/// placement), and y (view and array chunk reassignment) variables in
/// executable form.
struct MaintenancePlan {
  struct Transfer {
    MChunkRef chunk;
    NodeId from = kCoordinatorNode;
    NodeId to = 0;
  };
  struct Join {
    size_t pair_index = 0;  // into TripleSet::pairs
    NodeId node = 0;
  };
  struct Move {
    MChunkRef chunk;
    NodeId node = 0;
  };

  /// Operand co-location moves, in execution order (x variables).
  std::vector<Transfer> transfers;
  /// One entry per unique pair (z variables).
  std::vector<Join> joins;
  /// Merge destination / new home of every affected view chunk (y for view
  /// chunks).
  std::unordered_map<ChunkId, NodeId> view_home;
  /// New homes decided by array chunk reassignment, delta chunks included
  /// (y for array chunks). Chunks not listed stay at / go to their default.
  std::vector<Move> array_moves;
};

/// A fingerprint of one executed batch plan, built only from canonical plan
/// data: the transfers in execution order, the joins keyed by their pair's
/// operands (not by pair index or plan position), `view_home` in ascending
/// view-chunk order, the array moves in order, and the bit pattern of the
/// batch's simulated makespan. Never hashes pointers or hash-map iteration
/// order, so equal plans digest equally across runs, thread counts and
/// builds; a changed digest means a changed plan (or a changed makespan).
uint64_t PlanDigest(const MaintenancePlan& plan, const TripleSet& triples,
                    double makespan_seconds);

}  // namespace avm

