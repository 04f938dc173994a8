#include "maintenance/types.h"

#include <algorithm>
#include <bit>
#include <tuple>

namespace avm {

const std::vector<ChunkId>& JoinPair::AllViewTargets() const {
  if (!all_view_targets.empty() ||
      (view_targets_ab.empty() && view_targets_ba.empty())) {
    return all_view_targets;
  }
  // Fill the cache lazily (cheap: the lists are tiny and sorted).
  auto* self = const_cast<JoinPair*>(this);
  self->all_view_targets = view_targets_ab;
  self->all_view_targets.insert(self->all_view_targets.end(),
                                view_targets_ba.begin(),
                                view_targets_ba.end());
  std::sort(self->all_view_targets.begin(), self->all_view_targets.end());
  self->all_view_targets.erase(std::unique(self->all_view_targets.begin(),
                                           self->all_view_targets.end()),
                               self->all_view_targets.end());
  return all_view_targets;
}

uint64_t PlanDigest(const MaintenancePlan& plan, const TripleSet& triples,
                    double makespan_seconds) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](auto value) {
    h = HashCombine(h, HashMix(static_cast<uint64_t>(value)));
  };
  auto mix_ref = [&mix](const MChunkRef& ref) {
    mix(ref.side);
    mix(ref.id);
  };
  mix(plan.transfers.size());
  for (const MaintenancePlan::Transfer& t : plan.transfers) {
    mix_ref(t.chunk);
    mix(t.from);
    mix(t.to);
  }
  using JoinKey = std::tuple<MChunkRef, MChunkRef, NodeId>;
  std::vector<JoinKey> joins;
  joins.reserve(plan.joins.size());
  for (const MaintenancePlan::Join& join : plan.joins) {
    const JoinPair& pair = triples.pairs.at(join.pair_index);
    joins.emplace_back(pair.a, pair.b, join.node);
  }
  std::sort(joins.begin(), joins.end());
  mix(joins.size());
  for (const auto& [a, b, node] : joins) {
    mix_ref(a);
    mix_ref(b);
    mix(node);
  }
  std::vector<std::pair<ChunkId, NodeId>> view_home(plan.view_home.begin(),
                                                    plan.view_home.end());
  std::sort(view_home.begin(), view_home.end());
  mix(view_home.size());
  for (const auto& [v, node] : view_home) {
    mix(v);
    mix(node);
  }
  mix(plan.array_moves.size());
  for (const MaintenancePlan::Move& move : plan.array_moves) {
    mix_ref(move.chunk);
    mix(move.node);
  }
  mix(std::bit_cast<uint64_t>(makespan_seconds));
  return h;
}

}  // namespace avm
