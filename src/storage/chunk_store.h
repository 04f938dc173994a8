#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/chunk.h"
#include "array/coords.h"
#include "common/mutex.h"
#include "common/result.h"

namespace avm {

/// Identifier of an array registered in the catalog. Dense, assigned at
/// registration.
using ArrayId = uint32_t;

/// Shared, immutable-by-default reference to a stored chunk. Replicas created
/// during view maintenance alias the same Chunk through handles like this
/// one; the bytes are duplicated only when some store actually mutates its
/// copy (see ChunkStore::GetMutable).
using ChunkHandle = std::shared_ptr<const Chunk>;

/// A writer's handle to a store entry (see ChunkStore::PinMutable): the
/// chunk it points at may be mutated, and holding it pins the entry against
/// eviction for as long as the mutation lasts.
using MutableChunkHandle = std::shared_ptr<Chunk>;

namespace chunk_store_internal {
inline std::atomic<bool> g_aliasing_enabled{true};
inline std::atomic<int64_t> g_epoch_pins{0};
/// Process-wide access clock for eviction recency: every store access that
/// touches an entry stamps it with the next tick. A plain counter (not a
/// time source) — the buffer manager's clock hand only compares stamps.
inline std::atomic<uint64_t> g_access_tick{1};
}  // namespace chunk_store_internal

/// Number of live view epochs (src/serve) currently pinning chunk handles,
/// process-wide. While this is nonzero, reader threads may clone handles out
/// of a pinned epoch at any time, so a `use_count() == 1` observation on a
/// store entry is not proof of sole ownership: the count is allowed to be
/// stale the instant it is read. GetMutable/GetOrCreate therefore skip the
/// sole-owner fast path and always deep-copy an existing entry while epochs
/// are live (see the class contract below).
inline int64_t EpochPinsActive() {
  return chunk_store_internal::g_epoch_pins.load(std::memory_order_acquire);
}

/// Called by ViewEpoch's constructor/destructor (one pin per live epoch).
/// Must be invoked on, or synchronized with, the thread that drives store
/// mutation so that a mutation observing zero pins genuinely precedes the
/// epoch's publication. Also mirrored to the store.epochs_live gauge.
void AddEpochPin();
void ReleaseEpochPin();

/// Process-wide switch for PutHandle's aliasing fast path. On (the default),
/// storing a handle is a refcount bump; off, it deep-copies the chunk —
/// the pre-COW behavior, kept switchable so microbench_transfer can measure
/// both modes in one binary. Not for production use.
inline bool ChunkAliasingEnabled() {
  return chunk_store_internal::g_aliasing_enabled.load(
      std::memory_order_relaxed);
}
inline void SetChunkAliasingEnabled(bool enabled) {
  chunk_store_internal::g_aliasing_enabled.store(enabled,
                                                 std::memory_order_relaxed);
}

/// Location of one spilled chunk inside its store's spill file: a byte
/// extent handed out by the backend's allocator. Opaque to the store beyond
/// round-tripping it; length is the serialized (AVMCHK01) size.
struct SpillTicket {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// What a ChunkStore needs from the out-of-core layer (implemented by
/// src/buffer, which links storage — this interface exists so storage does
/// not link back). One backend instance is bound per store and is immutable
/// after AttachBufferBackend, so the store may call it at any time without
/// further coordination.
///
/// Locking contract, mirroring the rank order kBufferManager(25) <
/// kChunkStore(30) < kSpillFile(35): the spill-I/O entry points are called
/// with the store's mutex HELD (they may lock the spill file, rank above),
/// while the residency notifications are called with NO store mutex held
/// (they lock the buffer manager, rank below).
class BufferBackend {
 public:
  virtual ~BufferBackend() = default;

  /// Appends one serialized chunk to the spill file; returns its extent.
  virtual Result<SpillTicket> WriteSpill(const std::string& bytes) = 0;

  /// Reads back a previously written extent (the full serialized chunk).
  virtual Result<std::string> ReadSpill(const SpillTicket& ticket) = 0;

  /// Returns an extent to the free list (chunk reloaded or erased).
  virtual void FreeSpill(const SpillTicket& ticket) = 0;

  /// A chunk became (or re-became, or changed size while) resident in the
  /// bound store. `stamp` is the entry's shared access stamp; the buffer
  /// manager keeps it in the corresponding clock slot. May trigger eviction
  /// of *other* unpinned chunks to hold the budget — never of this one.
  virtual void NoteResident(ArrayId array, ChunkId chunk, uint64_t bytes,
                            std::shared_ptr<std::atomic<uint64_t>> stamp) = 0;

  /// A resident chunk left the bound store (Erase/EraseArray). Not called
  /// for spill (the manager drives TrySpill and unregisters the slot
  /// itself) nor for spilled entries being erased (no slot exists).
  virtual void NoteDropped(ArrayId array, ChunkId chunk) = 0;
};

/// The physical chunk container of one node: chunks of any array, keyed by
/// (array, chunk id). This models a node's local attached storage in the
/// shared-nothing architecture; a chunk "lives" on node k when k's store
/// holds it and the catalog maps it there. Replicas created during view
/// maintenance are additional entries in other nodes' stores that *alias*
/// the same Chunk — copy-on-write, so moving a chunk is a refcount bump and
/// the bytes are duplicated only when a store mutates its copy.
///
/// Concurrency contract: the chunk *map* is protected by an internal
/// annotated mutex (LockRank::kChunkStore), so concurrent map lookups and
/// handle puts are safe as such. What the lock deliberately does NOT cover
/// is the *chunk data* a Get/GetMutable/GetOrCreate result points at: those
/// escape the critical section by design (mutation happens outside the
/// lock), so mutating entry points still require the chunk to be externally
/// quiesced — in this codebase, the executor's control thread or a parallel
/// phase in which each task owns disjoint chunks. Concurrent *readers of
/// other stores* aliasing the same Chunk are always safe: a COW break
/// replaces this store's handle with a fresh deep copy and never touches
/// the shared original.
///
/// Snapshot serving (src/serve) adds concurrent readers that hold chunk
/// handles *without* touching any store: a published ViewEpoch pins a set of
/// handles, and reader threads may clone them at any moment. That breaks the
/// old use_count()-based sole-ownership test — the count can transiently
/// read 1 on the mutating thread while a reader is acquiring a handle — so
/// while any epoch is live (EpochPinsActive() > 0), GetMutable/GetOrCreate
/// unconditionally deep-copy existing entries before handing out a mutable
/// pointer. Chunks an epoch pinned are thus physically immutable for the
/// epoch's whole lifetime; the sole-owner in-place fast path applies only in
/// the quiesced, epoch-free configuration.
///
/// Out-of-core operation (src/buffer): with a BufferBackend attached, an
/// entry may be *spilled* — its bytes serialized into the backend's spill
/// file and the in-memory Chunk dropped. The entry stays in the map
/// (Contains/SizeBytes still see it; a chunk spilled on node k still lives
/// on node k), and any access that needs the data faults it back in
/// transparently. Pinning is implicit in the handle design: TrySpill only
/// evicts entries whose shared_ptr use_count is exactly 1 under the store
/// lock, and that observation is sound even while epochs are live — an
/// epoch (or any other holder) pinning THIS entry holds a handle to it, so
/// the count reads at least 2 and the count can only be inflated, never
/// deflated, by concurrent readers (cloning requires this lock or an
/// already-counted handle). An outstanding handle to a since-spilled chunk
/// stays valid: the shared_ptr keeps those bytes alive independently of the
/// spill copy.
///
/// Raw-pointer caveat with a backend attached: a `const Chunk*` from Get
/// (or Chunk* / Chunk& from GetMutable/GetOrCreate) is only stable until the
/// next store operation on any thread may trigger eviction. Code that holds
/// a chunk across such a window must hold a ChunkHandle or, to mutate it, a
/// MutableChunkHandle from PinMutable/PinOrCreate (both are pins), not a
/// raw pointer.
///
/// Keys are kept in an ordered map for deterministic iteration.
class ChunkStore {
 public:
  using Key = std::pair<ArrayId, ChunkId>;

  ChunkStore() = default;
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;
  // Non-movable: the internal mutex pins the store (Cluster keeps nodes in
  // a deque for exactly this reason).
  ChunkStore(ChunkStore&&) = delete;
  ChunkStore& operator=(ChunkStore&&) = delete;
  ~ChunkStore();

  /// Stores (or replaces) a chunk by value (fresh data the store becomes the
  /// first owner of). Returns the stored chunk's size in bytes.
  uint64_t Put(ArrayId array, ChunkId chunk,
               Chunk data);  // avm-lint: allow(chunk-by-value)

  /// Stores (or replaces) a chunk by handle: the copy-free replica path.
  /// With aliasing enabled this is a refcount bump; otherwise it deep-copies
  /// (the measurement baseline). Returns the chunk's size in bytes.
  uint64_t PutHandle(ArrayId array, ChunkId chunk, ChunkHandle data);

  /// The chunk if present, else nullptr. Never triggers a copy; faults a
  /// spilled entry back in. The raw pointer is NOT a pin: with a buffer
  /// manager attached and any other thread able to drive eviction, use
  /// GetHandle instead — an unpinned chunk may be spilled (and freed) the
  /// moment this call returns.
  const Chunk* Get(ArrayId array, ChunkId chunk) const;

  /// The owning handle if present, else nullptr — the source side of a
  /// copy-free transfer. The handle keeps the Chunk alive past Erase/Put,
  /// and doubles as an eviction pin while held.
  ChunkHandle GetHandle(ArrayId array, ChunkId chunk) const;

  /// Mutable access with copy-on-write: if this store's entry aliases a
  /// Chunk that other handles still reference, the entry is first replaced
  /// by a deep copy (a "COW break", counted in telemetry), so the mutation
  /// never reaches the other replicas. Returns nullptr if absent. Any
  /// previously obtained raw pointer or handle for this key keeps observing
  /// the pre-break chunk.
  ///
  /// The raw pointer is NOT a pin: with a buffer manager attached and any
  /// other thread able to drive eviction, the entry may be spilled (and
  /// the returned chunk freed) the moment this call returns. Mutating code
  /// that can run beside an eviction sweep uses PinMutable instead.
  Chunk* GetMutable(ArrayId array, ChunkId chunk);

  /// GetMutable, returning the chunk as a handle taken under the store
  /// lock. Pin-while-mutating: the eviction sweep treats use_count() == 1
  /// as proof that nobody is reading OR WRITING the buffers it is about to
  /// serialize, so the caller holds this handle for the whole mutation.
  /// Because the pin is taken in the same critical section as the fault-in
  /// and the COW break, no sweep can spill the entry between the lookup and
  /// the pin; it is released under the store lock, so a later sweep sees
  /// every write made through it. Null if absent.
  MutableChunkHandle PinMutable(ArrayId array, ChunkId chunk);

  /// The chunk, creating an empty one with the given layout if absent.
  /// Applies the same copy-on-write rule as GetMutable when the existing
  /// entry is shared; like GetMutable, the reference is not a pin.
  Chunk& GetOrCreate(ArrayId array, ChunkId chunk, size_t num_dims,
                     size_t num_attrs);

  /// GetOrCreate, returning the chunk pinned as PinMutable does.
  MutableChunkHandle PinOrCreate(ArrayId array, ChunkId chunk,
                                 size_t num_dims, size_t num_attrs);

  /// True if the entry exists, resident or spilled. Never faults anything
  /// in — the presence test for code that must not touch the bytes.
  bool Contains(ArrayId array, ChunkId chunk) const;

  /// True if the entry shares its Chunk with at least one other handle
  /// (another store's entry or an outstanding ChunkHandle). A spilled entry
  /// is by construction unshared: false.
  bool IsAliased(ArrayId array, ChunkId chunk) const;

  /// Drops the chunk; true if it was present. Dropping a primary copy is the
  /// caller's responsibility to coordinate with the catalog. The bytes are
  /// freed only when the last aliasing handle goes away; a spilled entry's
  /// extent is returned to the spill file's free list.
  bool Erase(ArrayId array, ChunkId chunk);

  /// Number of chunks held (all arrays), resident and spilled.
  size_t NumChunks() const {
    MutexLock lock(mu_);
    return chunks_.size();
  }

  /// Total bytes held (all arrays). Aliased replicas count in full on every
  /// store holding them, and spilled entries count at their spill-time
  /// logical size: this is the *logical* residency the simulated cost model
  /// charges for, not host RSS.
  uint64_t SizeBytes() const;

  /// Resident chunks and *physical* buffer bytes split by representation,
  /// plus the spilled remainder. The sparse/dense split covers resident
  /// entries only (actual footprints, PhysicalSizeBytes — the quantity the
  /// store.resident_{sparse,dense}_bytes gauges report); spilled_bytes is
  /// serialized on-disk size.
  struct FormatResidency {
    size_t sparse_chunks = 0;
    size_t dense_chunks = 0;
    uint64_t sparse_bytes = 0;
    uint64_t dense_bytes = 0;
    size_t spilled_chunks = 0;
    uint64_t spilled_bytes = 0;
  };
  FormatResidency ResidencyByFormat() const;

  /// Invokes fn(array, chunk_id, chunk) for every stored chunk in key order.
  /// Iterates over a snapshot of the entries taken under the lock, with fn
  /// invoked outside it, so fn may call back into this store. Faults every
  /// spilled entry in first (the snapshot pins the whole store — callers
  /// that only need keys should use ForEachKey).
  void ForEach(const std::function<void(ArrayId, ChunkId, const Chunk&)>& fn)
      const AVM_EXCLUDES(mu_);

  /// Invokes fn(array, chunk_id) for every entry in key order, resident or
  /// spilled, over a key snapshot. Never faults anything in.
  void ForEachKey(const std::function<void(ArrayId, ChunkId)>& fn) const
      AVM_EXCLUDES(mu_);

  /// Removes every chunk belonging to `array`; returns how many were dropped.
  size_t EraseArray(ArrayId array);

  // --- Out-of-core hooks (src/buffer) --------------------------------------

  /// A resident entry at attach time, reported so the buffer manager can
  /// seed its clock ring without holding the store lock.
  struct ResidentChunkInfo {
    ArrayId array = 0;
    ChunkId chunk = 0;
    uint64_t bytes = 0;  // PhysicalSizeBytes
    std::shared_ptr<std::atomic<uint64_t>> stamp;
  };

  /// Binds `backend` (not owned; must outlive the binding) and creates
  /// access stamps for the current entries. Returns one record per resident
  /// chunk. At most one backend may be attached at a time; attach/detach
  /// happen on the control thread while no spills are in flight.
  std::vector<ResidentChunkInfo> AttachBufferBackend(BufferBackend* backend);

  /// Faults every spilled entry back in, drops the stamps, and unbinds the
  /// backend. After this the store is an ordinary in-memory store again.
  void DetachBufferBackend();

  /// True if the entry exists and its bytes currently live in the spill
  /// file. The planner's residency probe — never faults in.
  bool IsSpilled(ArrayId array, ChunkId chunk) const;

  /// If the entry is resident, writes its current PhysicalSizeBytes to
  /// `bytes` and returns true; false if absent or spilled. Never faults in —
  /// the buffer manager's resampling probe (in-place mutation through
  /// GetMutable can change a chunk's footprint without the manager seeing
  /// a notification; Rebalance uses this to catch up).
  bool PeekResidentBytes(ArrayId array, ChunkId chunk, uint64_t* bytes) const;

  /// Attempts to evict one entry: serialize, write to the backend, drop the
  /// in-memory chunk. Returns the physical bytes freed, or 0 if the entry
  /// is absent, already spilled, or pinned (use_count > 1 — some handle,
  /// replica, or live epoch still references it). Called by the buffer
  /// manager, typically under its own lock (rank below this store's).
  uint64_t TrySpill(ArrayId array, ChunkId chunk);

  /// Debug structural audit: every entry holds a live chunk that passes its
  /// internal row-storage/index contract, or a well-formed spill ticket.
  /// Aliased replicas are legal (they are the point of the handle design);
  /// each shared Chunk is still checked from every store referencing it.
  /// Geometry is not checked here (a store holds chunks of many arrays;
  /// pass the grid at the call sites that have it). Violations fire
  /// AVM_CHECK; O(total resident cells). Never faults spilled entries in.
  void CheckInvariants() const;

 private:
  /// One slot of the map: a resident chunk, or (with a backend attached) a
  /// ticket for its serialized bytes. Exactly one of `chunk` / a nonempty
  /// ticket is active; `spilled_logical_bytes` preserves SizeBytes across
  /// the gap so logical residency accounting never dips.
  struct Entry {
    std::shared_ptr<Chunk> chunk;
    SpillTicket ticket;
    uint64_t spilled_logical_bytes = 0;
    std::shared_ptr<std::atomic<uint64_t>> stamp;

    bool spilled() const { return chunk == nullptr; }
  };

  /// Deferred NoteResident: reload/insert happens under mu_, but the buffer
  /// manager's lock ranks below it, so the notification is delivered by the
  /// public entry points after unlocking.
  struct ResidencyNote {
    BufferBackend* backend = nullptr;
    ArrayId array = 0;
    ChunkId chunk = 0;
    uint64_t bytes = 0;
    std::shared_ptr<std::atomic<uint64_t>> stamp;
  };
  static void Deliver(const ResidencyNote& note);

  /// Wraps a writer's reference to an entry's chunk so that the reference
  /// is dropped under mu_. shared_ptr::use_count() is a relaxed load and
  /// orders nothing, so without the lock a sweep that reads use_count() == 1
  /// (TrySpill, PeekResidentBytes) would have no happens-before edge to the
  /// writes made through the pin. Null in, null out.
  MutableChunkHandle MakeWriterPin(std::shared_ptr<Chunk> chunk);

  /// Stamps the entry with the next global access tick (no-op without a
  /// backend — stamps exist only while one is attached).
  void TouchLocked(Entry& entry) const AVM_REQUIRES(mu_);

  /// Reloads a spilled entry's chunk from the backend (AVM_CHECK on I/O or
  /// format failure — the file is ours) and queues the NoteResident. No-op
  /// for resident entries.
  void FaultInLocked(const Key& key, Entry& entry, ResidencyNote* note) const
      AVM_REQUIRES(mu_);

  /// Protects the map (entries and their handle slots), not the pointed-to
  /// chunk bytes — see the class concurrency contract.
  mutable Mutex mu_{"ChunkStore.mu", LockRank::kChunkStore};

  /// Entries are non-const internally; Get/GetHandle project constness out.
  /// Every stored Chunk was created by a ChunkStore via make_shared<Chunk>
  /// (never from a genuinely const object), so PutHandle's
  /// const_pointer_cast back to the mutable type is sound. Mutable because
  /// const accessors fault spilled entries back in.
  mutable std::map<Key, Entry> chunks_ AVM_GUARDED_BY(mu_);

  /// The bound out-of-core backend, or null for a plain in-memory store.
  BufferBackend* backend_ AVM_GUARDED_BY(mu_) = nullptr;
};

}  // namespace avm
