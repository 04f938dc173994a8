// Microbenchmark: shared delta pass vs per-view kernel loop.
//
// A/Bs maintaining K similarity-join views over one (left, right) chunk
// pair: the per-view arm runs JoinAggregateChunkPair once per view with
// that view's own compiled shape; the shared arm runs
// MultiViewJoinAggregateChunkPair once with the union compiled shape and
// per-offset acceptance masks. Sweeps K in {1, 2, 4, 8} against three
// overlap regimes (full: identical shapes; nested: concentric balls;
// partial: translated balls whose union is strictly larger than any
// member). Both arms are gated bit-identical before timing.
//
// Emits machine-readable results to BENCH_multiview.json (or --out=PATH);
// --smoke shrinks the sweep for CI, which gates the K=4 fully-overlapping
// speedup. --warmup=N / --repeat=N tune the shared median-of-N policy.
//
// The config is probe-dominated on purpose (sparse 5%-dense chunk, L∞(2)
// shapes): probing is the work the shared pass amortizes across views, so
// this regime shows the mechanism's payoff; fold work is per-view in both
// arms and dilutes toward 1x as density grows.

#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "agg/aggregates.h"
#include "array/chunk.h"
#include "array/chunk_grid.h"
#include "array/schema.h"
#include "array/sparse_array.h"
#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "join/compiled_shape.h"
#include "join/join_kernel.h"
#include "join/mapping.h"
#include "join/multiview_kernel.h"
#include "shape/shape.h"

namespace avm {
namespace {

/// Single-chunk array spanning [0, extent)^2 with one double attribute,
/// filled to `density` by deterministic Bernoulli draws (same recipe as
/// microbench_join so cross-bench numbers describe one workload family).
SparseArray MakeDenseChunkArray(int64_t extent, double density,
                                uint64_t seed) {
  auto schema = ArraySchema::Create("bench",
                                    {{"d0", 0, extent - 1, extent},
                                     {"d1", 0, extent - 1, extent}},
                                    {{"v", AttributeType::kDouble}});
  AVM_CHECK(schema.ok()) << schema.status().ToString();
  SparseArray array(std::move(schema).value());
  Rng rng(seed);
  CellCoord coord(2, 0);
  for (coord[0] = 0; coord[0] < extent; ++coord[0]) {
    for (coord[1] = 0; coord[1] < extent; ++coord[1]) {
      if (!rng.Bernoulli(density)) continue;
      const double v = rng.UniformDouble() * 10.0;
      AVM_CHECK(array.Set(coord, {&v, 1}).ok());
    }
  }
  return array;
}

/// The K member shapes of one overlap regime.
std::vector<Shape> MakeShapes(const std::string& overlap, size_t k_views) {
  std::vector<Shape> shapes;
  for (size_t k = 0; k < k_views; ++k) {
    if (overlap == "full") {
      // Every view probes the identical L∞(2) ball: the union is one
      // member's shape and the shared pass does 1/K of the probe work.
      shapes.push_back(Shape::LinfBall(2, 2));
    } else if (overlap == "nested") {
      // Concentric balls: union is still the largest member, but the
      // smaller members accept only a subset of each probe's offsets.
      switch (k % 4) {
        case 0: shapes.push_back(Shape::LinfBall(2, 2)); break;
        case 1: shapes.push_back(Shape::LinfBall(2, 1)); break;
        case 2: shapes.push_back(Shape::L1Ball(2, 2)); break;
        default: shapes.push_back(Shape::L1Ball(2, 1)); break;
      }
    } else {
      // Partial overlap: the same ball translated one column per view, so
      // the union (5 x (K+4) offsets) is strictly larger than any member
      // and some probes serve only a subset of the views.
      auto shift = Shape::FromOffsets(2, {{static_cast<int64_t>(k), 0}});
      AVM_CHECK(shift.ok()) << shift.status().ToString();
      auto shifted = Shape::MinkowskiSum(Shape::LinfBall(2, 2), shift.value());
      AVM_CHECK(shifted.ok()) << shifted.status().ToString();
      shapes.push_back(std::move(shifted).value());
    }
  }
  return shapes;
}

struct BenchResult {
  size_t k_views = 0;
  std::string overlap;
  size_t union_offsets = 0;
  size_t member_offsets_total = 0;
  size_t right_cells = 0;
  double per_view_s = 0.0;
  double shared_s = 0.0;
  double speedup = 0.0;
};

BenchResult RunConfig(size_t k_views, const std::string& overlap,
                      int64_t extent, double density, double target_seconds) {
  // Pin sparse so both arms measure the probe path the regime is built for
  // (5% density would stay sparse under kAuto anyway; pinning removes the
  // hysteresis policy as a variable).
  ScopedDensificationMode pin_sparse(DensificationMode::kForceSparse);
  const SparseArray array =
      MakeDenseChunkArray(extent, density, /*seed=*/0xA11CE ^ extent);
  const Chunk* chunk = array.GetChunk(0);
  AVM_CHECK(chunk != nullptr) << "empty bench chunk";

  const std::vector<Shape> shapes = MakeShapes(overlap, k_views);
  const DimMapping mapping = DimMapping::Identity(2);
  std::vector<size_t> group_dims = {0, 1};

  auto layout_result = AggregateLayout::Create(
      {{AggregateFunction::kCount, 0, "cnt"},
       {AggregateFunction::kSum, 0, "sum"}},
      /*num_base_attrs=*/1);
  AVM_CHECK(layout_result.ok()) << layout_result.status().ToString();
  const AggregateLayout layout = std::move(layout_result).value();

  const RightOperand rop{chunk, 0, &array.grid()};
  const ViewTarget target{&group_dims, &array.grid()};

  std::vector<const CompiledShape*> member_compiled;
  std::vector<std::shared_ptr<const CompiledShape>> member_holds;
  std::vector<const Shape*> member_shapes;
  for (const Shape& shape : shapes) {
    auto compiled =
        CompiledShapeCache::Global().Get(shape, mapping, array.grid());
    AVM_CHECK(compiled.ok()) << compiled.status().ToString();
    member_holds.push_back(compiled.value());
    member_compiled.push_back(member_holds.back().get());
    member_shapes.push_back(&shape);
  }
  auto set_result =
      CompiledViewSet::Create(member_shapes, mapping, array.grid());
  AVM_CHECK(set_result.ok()) << set_result.status().ToString();
  const CompiledViewSet& set = std::move(set_result).value();

  auto run_per_view = [&](std::vector<std::map<ChunkId, Chunk>>* frags) {
    frags->assign(k_views, {});
    for (size_t k = 0; k < k_views; ++k) {
      AVM_CHECK(JoinAggregateChunkPair(*chunk, rop, *member_compiled[k],
                                       layout, target, 1, &(*frags)[k])
                    .ok());
    }
  };
  auto run_shared = [&](std::vector<std::map<ChunkId, Chunk>>* frags) {
    frags->assign(k_views, {});
    std::vector<MultiViewLane> lanes(k_views);
    for (size_t k = 0; k < k_views; ++k) {
      lanes[k] = {&layout, target, &(*frags)[k]};
    }
    AVM_CHECK(MultiViewJoinAggregateChunkPair(
                  *chunk, rop, set, std::span<const MultiViewLane>(lanes), 1)
                  .ok());
  };

  // Bit-identity gate before timing: demultiplexed lanes must reproduce
  // each view's solo kernel exactly (tolerance 0) — the differential
  // oracle's guarantee, re-checked on the bench inputs.
  std::vector<std::map<ChunkId, Chunk>> solo_frags;
  std::vector<std::map<ChunkId, Chunk>> shared_frags;
  run_per_view(&solo_frags);
  run_shared(&shared_frags);
  for (size_t k = 0; k < k_views; ++k) {
    AVM_CHECK_EQ(solo_frags[k].size(), shared_frags[k].size());
    for (const auto& [id, frag] : solo_frags[k]) {
      auto it = shared_frags[k].find(id);
      AVM_CHECK(it != shared_frags[k].end());
      AVM_CHECK(frag.ContentEquals(it->second, 0.0))
          << "shared pass not bit-identical: view " << k << " of " << k_views
          << " (" << overlap << ")";
    }
  }

  BenchResult result;
  result.k_views = k_views;
  result.overlap = overlap;
  result.union_offsets = set.union_shape().size();
  for (const Shape& shape : shapes) result.member_offsets_total += shape.size();
  result.right_cells = chunk->num_cells();

  result.per_view_s = bench::MedianSecondsPerRun(
      [&] {
        std::vector<std::map<ChunkId, Chunk>> frags;
        run_per_view(&frags);
      },
      target_seconds);
  result.shared_s = bench::MedianSecondsPerRun(
      [&] {
        std::vector<std::map<ChunkId, Chunk>> frags;
        run_shared(&frags);
      },
      target_seconds);
  result.speedup = result.per_view_s / result.shared_s;
  return result;
}

void WriteJson(const std::string& path,
               const std::vector<BenchResult>& results, bool smoke) {
  double speedup_k4_full = 0.0;
  for (const auto& r : results) {
    if (r.k_views == 4 && r.overlap == "full") speedup_k4_full = r.speedup;
  }
  FILE* out = std::fopen(path.c_str(), "w");
  AVM_CHECK(out != nullptr) << "cannot open " << path;
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"microbench_multiview\",\n"
               "  \"smoke\": %s,\n"
               "  \"speedup_k4_full\": %.4f,\n"
               "  \"results\": [\n",
               smoke ? "true" : "false", speedup_k4_full);
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        out,
        "    {\"k\": %zu, \"overlap\": \"%s\", \"union_offsets\": %zu, "
        "\"member_offsets_total\": %zu, \"right_cells\": %zu, "
        "\"per_view_s\": %.6e, \"shared_s\": %.6e, \"speedup\": %.4f}%s\n",
        r.k_views, r.overlap.c_str(), r.union_offsets,
        r.member_offsets_total, r.right_cells, r.per_view_s, r.shared_s,
        r.speedup, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  bench::ParseRepeatFlags(&argc, argv);
  std::string out_path = "BENCH_multiview.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out=PATH] [--smoke] [--warmup=N] "
                   "[--repeat=N]\n",
                   argv[0]);
      return 2;
    }
  }

  // Smoke shrinks the timing budget and the K sweep but keeps the full
  // chunk extent: a smaller chunk lets fixed per-invocation overhead dilute
  // the speedup the CI gate checks.
  const int64_t extent = 64;
  const double density = 0.05;
  const double target_seconds = smoke ? 0.01 : 0.05;
  const std::vector<size_t> ks =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 8};
  const std::vector<std::string> overlaps = {"full", "nested", "partial"};

  std::vector<BenchResult> results;
  std::printf("%-10s %2s %8s %8s %8s   per-view s     shared s  speedup\n",
              "overlap", "K", "|union|", "|members|", "cells");
  for (const std::string& overlap : overlaps) {
    for (size_t k : ks) {
      BenchResult r = RunConfig(k, overlap, extent, density, target_seconds);
      std::printf("%-10s %2zu %8zu %8zu %8zu  %.4e  %.4e  %6.2fx\n",
                  r.overlap.c_str(), r.k_views, r.union_offsets,
                  r.member_offsets_total, r.right_cells, r.per_view_s,
                  r.shared_s, r.speedup);
      results.push_back(std::move(r));
    }
  }
  WriteJson(out_path, results, smoke);

  double speedup_k4_full = 0.0;
  for (const auto& r : results) {
    if (r.k_views == 4 && r.overlap == "full") speedup_k4_full = r.speedup;
  }
  std::printf("wrote %s (K=4 fully-overlapping speedup: %.2fx)\n",
              out_path.c_str(), speedup_k4_full);
  return 0;
}

}  // namespace
}  // namespace avm

int main(int argc, char** argv) { return avm::Main(argc, argv); }
