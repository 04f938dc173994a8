#include "buffer/buffer_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/chunk.h"
#include "array/coords.h"
#include "buffer/spill_file.h"
#include "cluster/placement.h"
#include "maintenance/maintainer.h"
#include "shape/shape.h"
#include "storage/chunk_store.h"
#include "tests/test_util.h"

namespace avm {
namespace {

/// A 2-d, 1-attr chunk with `cells` rows at deterministic coordinates and
/// values derived from `seed`, so round-trips can be checked bit for bit.
Chunk MakeChunk(size_t cells, uint64_t seed = 0) {
  Chunk chunk(/*num_dims=*/2, /*num_attrs=*/1);
  chunk.Reserve(cells);
  CellCoord coord(2);
  for (size_t i = 0; i < cells; ++i) {
    coord[0] = static_cast<int64_t>(i / 8);
    coord[1] = static_cast<int64_t>(i % 8);
    const double v = static_cast<double>(i * 3 + seed) * 0.25;
    chunk.UpsertCell(i, coord, {&v, 1});
  }
  return chunk;
}

// --- SpillFile: the free-extent allocator --------------------------------

TEST(SpillFileTest, WriteReadRoundTrip) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillFile::Create("spill_test_rt.bin"));
  ASSERT_OK_AND_ASSIGN(SpillTicket a, file->Write(std::string(100, 'a')));
  ASSERT_OK_AND_ASSIGN(SpillTicket b, file->Write(std::string(50, 'b')));
  EXPECT_EQ(a.length, 100u);
  EXPECT_EQ(b.offset, 100u);
  EXPECT_EQ(file->LiveBytes(), 150u);
  ASSERT_OK_AND_ASSIGN(std::string back_a, file->Read(a));
  ASSERT_OK_AND_ASSIGN(std::string back_b, file->Read(b));
  EXPECT_EQ(back_a, std::string(100, 'a'));
  EXPECT_EQ(back_b, std::string(50, 'b'));
}

TEST(SpillFileTest, FreedExtentIsReused) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillFile::Create("spill_test_reuse.bin"));
  ASSERT_OK_AND_ASSIGN(SpillTicket a, file->Write(std::string(64, 'a')));
  ASSERT_OK_AND_ASSIGN(SpillTicket b, file->Write(std::string(64, 'b')));
  (void)b;
  file->Free(a);
  // First fit lands the same-size write in the hole, not at the end.
  ASSERT_OK_AND_ASSIGN(SpillTicket c, file->Write(std::string(48, 'c')));
  EXPECT_EQ(c.offset, a.offset);
  // The 16-byte leftover of the split hole serves a small follow-up.
  ASSERT_OK_AND_ASSIGN(SpillTicket d, file->Write(std::string(16, 'd')));
  EXPECT_EQ(d.offset, a.offset + 48);
  EXPECT_EQ(file->FileBytes(), 128u);
}

TEST(SpillFileTest, AdjacentFreesCoalesce) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillFile::Create("spill_test_coalesce.bin"));
  ASSERT_OK_AND_ASSIGN(SpillTicket a, file->Write(std::string(32, 'a')));
  ASSERT_OK_AND_ASSIGN(SpillTicket b, file->Write(std::string(32, 'b')));
  ASSERT_OK_AND_ASSIGN(SpillTicket c, file->Write(std::string(32, 'c')));
  ASSERT_OK_AND_ASSIGN(SpillTicket tail, file->Write(std::string(8, 't')));
  (void)tail;
  // Free a and c, then b: the three must merge into one 96-byte extent
  // that a single large write can claim.
  file->Free(a);
  file->Free(c);
  file->Free(b);
  ASSERT_OK_AND_ASSIGN(SpillTicket big, file->Write(std::string(96, 'x')));
  EXPECT_EQ(big.offset, 0u);
  EXPECT_EQ(file->FileBytes(), 104u);
}

TEST(SpillFileTest, TrailingFreeShrinksTheFile) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SpillFile> file,
                       SpillFile::Create("spill_test_shrink.bin"));
  ASSERT_OK_AND_ASSIGN(SpillTicket a, file->Write(std::string(40, 'a')));
  ASSERT_OK_AND_ASSIGN(SpillTicket b, file->Write(std::string(40, 'b')));
  EXPECT_EQ(file->FileBytes(), 80u);
  file->Free(b);
  EXPECT_EQ(file->FileBytes(), 40u);
  file->Free(a);
  EXPECT_EQ(file->FileBytes(), 0u);
  EXPECT_EQ(file->LiveBytes(), 0u);
}

// --- BufferManager over a ChunkStore -------------------------------------

struct BufferFixture {
  // Store first: the manager's destructor detaches it, which must run
  // before the store's own destructor.
  ChunkStore store;
  std::unique_ptr<BufferManager> manager;

  explicit BufferFixture(uint64_t budget_bytes) {
    BufferOptions options;
    options.budget_bytes = budget_bytes;
    options.spill_dir = "buffer_test_spill";
    manager = std::make_unique<BufferManager>(options);
    manager->Register(&store);
  }
};

uint64_t OneChunkPhysicalBytes(size_t cells) {
  return MakeChunk(cells).PhysicalSizeBytes();
}

TEST(BufferManagerTest, EnforcesBudgetAndReloadsBitExact) {
  constexpr size_t kCells = 512;
  constexpr size_t kChunks = 6;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);  // fits 2 of 6

  for (size_t i = 0; i < kChunks; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  const BufferManager::Stats stats = fx.manager->GetStats();
  EXPECT_LE(stats.resident_bytes, fx.manager->budget_bytes());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.disk_bytes, 0u);

  size_t spilled = 0;
  for (size_t i = 0; i < kChunks; ++i) {
    if (fx.store.IsSpilled(0, static_cast<ChunkId>(i))) ++spilled;
    EXPECT_TRUE(fx.store.Contains(0, static_cast<ChunkId>(i)));
  }
  EXPECT_GE(spilled, kChunks - 3) << "most of the catalog must be on disk";

  // Faulting back in restores the exact content, for every chunk.
  for (size_t i = 0; i < kChunks; ++i) {
    const ChunkHandle h = fx.store.GetHandle(0, static_cast<ChunkId>(i));
    ASSERT_NE(h, nullptr) << "chunk " << i;
    EXPECT_TRUE(h->ContentEquals(MakeChunk(kCells, i), 0.0)) << "chunk " << i;
  }
}

TEST(BufferManagerTest, OutstandingHandleBlocksEviction) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  fx.store.Put(0, 0, MakeChunk(kCells, 0));
  const ChunkHandle pin = fx.store.GetHandle(0, 0);  // as an epoch would
  ASSERT_NE(pin, nullptr);
  for (size_t i = 1; i < 8; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  EXPECT_FALSE(fx.store.IsSpilled(0, 0))
      << "a pinned chunk must never be spilled";
  // Direct attempts bounce off the pin too.
  EXPECT_EQ(fx.store.TrySpill(0, 0), 0u);
}

TEST(BufferManagerTest, MutablePinBlocksEvictionUntilReleased) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  fx.store.Put(0, 0, MakeChunk(kCells, 0));
  {
    // The writer's pin is the entry itself, taken under the store lock:
    // sweeps driven by the puts below must leave it resident, so the
    // mutation lands in the chunk the store keeps.
    const MutableChunkHandle pin = fx.store.PinMutable(0, 0);
    ASSERT_NE(pin, nullptr);
    for (size_t i = 1; i < 8; ++i) {
      fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
    }
    EXPECT_FALSE(fx.store.IsSpilled(0, 0))
        << "a chunk pinned for mutation must never be spilled";
    EXPECT_EQ(fx.store.TrySpill(0, 0), 0u);
    pin->EraseCell(0);

    const MutableChunkHandle created = fx.store.PinOrCreate(0, 9, 2, 1);
    ASSERT_NE(created, nullptr);
    EXPECT_EQ(fx.store.TrySpill(0, 9), 0u);
  }
  EXPECT_GT(fx.store.TrySpill(0, 0), 0u) << "released pins allow eviction";
  const ChunkHandle reloaded = fx.store.GetHandle(0, 0);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->num_cells(), kCells - 1);
  EXPECT_EQ(reloaded->GetCell(0), nullptr);
}

TEST(BufferManagerTest, AllPinnedWorkingSetDegradesToResident) {
  constexpr size_t kCells = 256;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/one);  // fits a single chunk

  std::vector<ChunkHandle> pins;
  for (size_t i = 0; i < 4; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
    pins.push_back(fx.store.GetHandle(0, static_cast<ChunkId>(i)));
  }
  // Over budget but nothing evictable: the sweep gives up instead of
  // live-locking, and everything stays resident.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(fx.store.IsSpilled(0, static_cast<ChunkId>(i)));
  }
  EXPECT_GT(fx.manager->GetStats().resident_bytes,
            fx.manager->budget_bytes());
}

TEST(BufferManagerTest, ResidencyByFormatSplitsResidentFromSpilled) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  const uint64_t logical_total = [&] {
    uint64_t sum = 0;
    for (size_t i = 0; i < 6; ++i) {
      sum += fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
    }
    return sum;
  }();

  const ChunkStore::FormatResidency r = fx.store.ResidencyByFormat();
  EXPECT_GT(r.spilled_chunks, 0u);
  EXPECT_GT(r.spilled_bytes, 0u);
  EXPECT_EQ(r.sparse_chunks + r.dense_chunks + r.spilled_chunks, 6u);
  // The sparse/dense split covers resident entries only, so it must fit the
  // budget; logical residency (SizeBytes) still covers the whole catalog.
  EXPECT_LE(r.sparse_bytes + r.dense_bytes, fx.manager->budget_bytes());
  EXPECT_EQ(fx.store.SizeBytes(), logical_total);
}

TEST(BufferManagerTest, ErasingSpilledEntriesFreesTheirExtents) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  for (size_t i = 0; i < 6; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  ASSERT_GT(fx.manager->GetStats().disk_bytes, 0u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(fx.store.Erase(0, static_cast<ChunkId>(i)));
  }
  EXPECT_EQ(fx.manager->GetStats().disk_bytes, 0u);
  EXPECT_EQ(fx.manager->GetStats().resident_bytes, 0u);
  EXPECT_EQ(fx.store.NumChunks(), 0u);
}

TEST(BufferManagerTest, PutOverSpilledEntryDropsTheStaleExtent) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  for (size_t i = 0; i < 6; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  ChunkId victim = 0;
  for (size_t i = 0; i < 6; ++i) {
    if (fx.store.IsSpilled(0, static_cast<ChunkId>(i))) {
      victim = static_cast<ChunkId>(i);
      break;
    }
  }
  ASSERT_TRUE(fx.store.IsSpilled(0, victim));
  const uint64_t disk_before = fx.manager->GetStats().disk_bytes;
  fx.store.Put(0, victim, MakeChunk(kCells / 2, 99));
  EXPECT_FALSE(fx.store.IsSpilled(0, victim));
  EXPECT_LT(fx.manager->GetStats().disk_bytes, disk_before)
      << "replacing a spilled entry must free its extent";
  const ChunkHandle h = fx.store.GetHandle(0, victim);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->ContentEquals(MakeChunk(kCells / 2, 99), 0.0));
}

TEST(BufferManagerTest, DetachFaultsEverythingBackIn) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  ChunkStore store;
  {
    BufferOptions options;
    options.budget_bytes = 5 * one / 2;
    options.spill_dir = "buffer_test_spill_detach";
    BufferManager manager(options);
    manager.Register(&store);
    for (size_t i = 0; i < 6; ++i) {
      store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
    }
    ASSERT_GT(manager.GetStats().disk_bytes, 0u);
  }
  // Manager gone: the store is an ordinary in-memory store again, with
  // every chunk resident and intact.
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(store.IsSpilled(0, static_cast<ChunkId>(i)));
    const Chunk* chunk = store.Get(0, static_cast<ChunkId>(i));
    ASSERT_NE(chunk, nullptr);
    EXPECT_TRUE(chunk->ContentEquals(MakeChunk(kCells, i), 0.0));
  }
  store.CheckInvariants();
}

TEST(BufferManagerTest, ForEachFaultsSpilledEntriesIn) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  BufferFixture fx(/*budget_bytes=*/5 * one / 2);

  for (size_t i = 0; i < 6; ++i) {
    fx.store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  size_t seen = 0;
  fx.store.ForEach([&](ArrayId array, ChunkId chunk, const Chunk& data) {
    EXPECT_EQ(array, 0u);
    EXPECT_TRUE(data.ContentEquals(MakeChunk(kCells, chunk), 0.0));
    ++seen;
  });
  EXPECT_EQ(seen, 6u);
}

TEST(BufferManagerTest, RegisterSeedsExistingChunksAndEnforces) {
  constexpr size_t kCells = 512;
  const uint64_t one = OneChunkPhysicalBytes(kCells);
  ChunkStore store;
  for (size_t i = 0; i < 6; ++i) {
    store.Put(0, static_cast<ChunkId>(i), MakeChunk(kCells, i));
  }
  BufferOptions options;
  options.budget_bytes = 5 * one / 2;
  options.spill_dir = "buffer_test_spill_seed";
  BufferManager manager(options);
  manager.Register(&store);  // store alone already exceeds the budget
  EXPECT_LE(manager.GetStats().resident_bytes, manager.budget_bytes());
  EXPECT_GT(manager.GetStats().evictions, 0u);
}

// --- The differential oracle with spill enabled --------------------------

// Maintenance over a cluster whose every store sits under a budget a
// quarter of the initial footprint: chunks spill and fault throughout the
// batch loop, and the maintained view must still match from-scratch
// recomputation exactly.
TEST(BufferManagerTest, MaintainerStaysCorrectUnderSpillPressure) {
  constexpr int kWorkers = 2;
  ASSERT_OK_AND_ASSIGN(
      testing_util::ViewFixture fixture,
      testing_util::MakeCountViewFixture(kWorkers, /*base_cells=*/200,
                                         Shape::LinfBall(2, 1), /*seed=*/7,
                                         /*with_sum=*/true));

  uint64_t footprint = 0;
  auto add_store = [&](NodeId n) {
    const ChunkStore::FormatResidency r =
        fixture.cluster->store(n).ResidencyByFormat();
    footprint += r.sparse_bytes + r.dense_bytes;
  };
  for (NodeId n = 0; n < kWorkers; ++n) add_store(n);
  add_store(kCoordinatorNode);
  ASSERT_GT(footprint, 0u);

  BufferOptions options;
  options.budget_bytes = footprint / 4;
  options.spill_dir = "buffer_test_spill_maint";
  BufferManager manager(options);
  for (NodeId n = 0; n < kWorkers; ++n) {
    manager.Register(&fixture.cluster->store(n));
  }
  manager.Register(&fixture.cluster->store(kCoordinatorNode));
  ASSERT_GT(manager.GetStats().evictions, 0u)
      << "the budget must actually force spills";

  ViewMaintainer maintainer(fixture.view.get(), MaintenanceMethod::kReassign);
  Rng rng(21);
  for (int batch = 0; batch < 3; ++batch) {
    const SparseArray delta = testing_util::RandomDisjointDelta(
        fixture.local_base, /*cells=*/40, &rng);
    delta.ForEachCell(
        [&](std::span<const int64_t> c, std::span<const double> v) {
          const CellCoord coord(c.begin(), c.end());
          ASSERT_OK(fixture.local_base.Set(coord, v));
        });
    ASSERT_OK(maintainer.ApplyBatch(delta));
    manager.Rebalance();
    ASSERT_TRUE(testing_util::ViewMatchesRecompute(*fixture.view));
  }
}

}  // namespace
}  // namespace avm
