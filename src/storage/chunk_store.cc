#include "storage/chunk_store.h"

#include <sstream>
#include <utility>
#include <vector>

#include "array/serialization.h"
#include "common/check.h"
#include "telemetry/metrics.h"

namespace avm {

namespace {

/// Residency gauges aggregate over every ChunkStore in the process (all
/// simulated nodes). They track deltas from the moment telemetry was
/// enabled, so chunks stored before enabling are not counted. Aliased
/// replicas count in full per holding store (logical residency, matching
/// SizeBytes); spilled entries are excluded — they move to the
/// store.spilled_* gauges for the duration of the spill.
void TrackResident(int64_t chunks_delta, int64_t bytes_delta) {
  if (chunks_delta != 0) {
    GaugeAdd(GaugeId::kStoreResidentChunks, chunks_delta);
  }
  if (bytes_delta != 0) GaugeAdd(GaugeId::kStoreResidentBytes, bytes_delta);
}

uint64_t NextAccessTick() {
  return chunk_store_internal::g_access_tick.fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace

void AddEpochPin() {
  chunk_store_internal::g_epoch_pins.fetch_add(1, std::memory_order_acq_rel);
  GaugeAdd(GaugeId::kStoreEpochsLive, 1);
}

void ReleaseEpochPin() {
  const int64_t before = chunk_store_internal::g_epoch_pins.fetch_sub(
      1, std::memory_order_acq_rel);
  AVM_CHECK(before > 0) << "epoch pin underflow";
  GaugeAdd(GaugeId::kStoreEpochsLive, -1);
}

ChunkStore::~ChunkStore() {
  MutexLock lock(mu_);
  AVM_CHECK(backend_ == nullptr)
      << "ChunkStore destroyed with a buffer backend still attached; "
         "destroy (or Unregister from) the BufferManager first";
}

void ChunkStore::Deliver(const ResidencyNote& note) {
  if (note.backend != nullptr) {
    note.backend->NoteResident(note.array, note.chunk, note.bytes, note.stamp);
  }
}

void ChunkStore::TouchLocked(Entry& entry) const {
  if (entry.stamp != nullptr) {
    entry.stamp->store(NextAccessTick(), std::memory_order_relaxed);
  }
}

void ChunkStore::FaultInLocked(const Key& key, Entry& entry,
                               ResidencyNote* note) const {
  if (!entry.spilled()) return;
  AVM_CHECK(backend_ != nullptr)
      << "spilled entry (" << key.first << ", " << key.second
      << ") with no backend attached";
  Result<std::string> bytes = backend_->ReadSpill(entry.ticket);
  AVM_CHECK(bytes.ok()) << "spill read failed for chunk (" << key.first
                        << ", " << key.second
                        << "): " << bytes.status().ToString();
  std::istringstream in(*bytes, std::ios::in | std::ios::binary);
  Result<Chunk> chunk = LoadChunk(in);
  AVM_CHECK(chunk.ok()) << "spill decode failed for chunk (" << key.first
                        << ", " << key.second
                        << "): " << chunk.status().ToString();
  backend_->FreeSpill(entry.ticket);
  const int64_t disk_len = static_cast<int64_t>(entry.ticket.length);
  entry.chunk = std::make_shared<Chunk>(std::move(*chunk));
  entry.ticket = SpillTicket{};
  CountAdd(CounterId::kBufferReloads);
  CountAdd(CounterId::kBufferBytesReloaded, static_cast<uint64_t>(disk_len));
  GaugeAdd(GaugeId::kStoreSpilledChunks, -1);
  GaugeAdd(GaugeId::kStoreSpilledBytes, -disk_len);
  if (TelemetryEnabled()) {
    TrackResident(1, static_cast<int64_t>(entry.spilled_logical_bytes));
  }
  entry.spilled_logical_bytes = 0;
  if (note != nullptr) {
    note->backend = backend_;
    note->array = key.first;
    note->chunk = key.second;
    note->bytes = entry.chunk->PhysicalSizeBytes();
    note->stamp = entry.stamp;
  }
}

uint64_t ChunkStore::Put(ArrayId array, ChunkId chunk,
                         Chunk data) {  // avm-lint: allow(chunk-by-value)
  const uint64_t bytes = data.SizeBytes();
  ResidencyNote note;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    const bool existed = it != chunks_.end();
    const bool was_spilled = existed && it->second.spilled();
    if (was_spilled) {
      // Replacing a spilled entry: its on-disk copy is dead.
      backend_->FreeSpill(it->second.ticket);
      GaugeAdd(GaugeId::kStoreSpilledChunks, -1);
      GaugeAdd(GaugeId::kStoreSpilledBytes,
               -static_cast<int64_t>(it->second.ticket.length));
    }
    if (TelemetryEnabled()) {
      TrackResident(
          (!existed || was_spilled) ? 1 : 0,
          static_cast<int64_t>(bytes) -
              (existed && !was_spilled
                   ? static_cast<int64_t>(it->second.chunk->SizeBytes())
                   : 0));
    }
    Entry entry;
    entry.chunk = std::make_shared<Chunk>(std::move(data));
    if (backend_ != nullptr) {
      entry.stamp = (existed && it->second.stamp != nullptr)
                        ? it->second.stamp
                        : std::make_shared<std::atomic<uint64_t>>(0);
    }
    auto [pos, inserted] =
        chunks_.insert_or_assign(Key{array, chunk}, std::move(entry));
    TouchLocked(pos->second);
    if (backend_ != nullptr) {
      note = ResidencyNote{backend_, array, chunk,
                           pos->second.chunk->PhysicalSizeBytes(),
                           pos->second.stamp};
    }
  }
  Deliver(note);
  return bytes;
}

uint64_t ChunkStore::PutHandle(ArrayId array, ChunkId chunk,
                               ChunkHandle data) {
  AVM_CHECK(data != nullptr) << "PutHandle of a null chunk handle";
  const uint64_t bytes = data->SizeBytes();
  ResidencyNote note;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    const bool existed = it != chunks_.end();
    const bool was_spilled = existed && it->second.spilled();
    if (was_spilled) {
      backend_->FreeSpill(it->second.ticket);
      GaugeAdd(GaugeId::kStoreSpilledChunks, -1);
      GaugeAdd(GaugeId::kStoreSpilledBytes,
               -static_cast<int64_t>(it->second.ticket.length));
    }
    if (TelemetryEnabled()) {
      TrackResident(
          (!existed || was_spilled) ? 1 : 0,
          static_cast<int64_t>(bytes) -
              (existed && !was_spilled
                   ? static_cast<int64_t>(it->second.chunk->SizeBytes())
                   : 0));
    }
    Entry entry;
    if (ChunkAliasingEnabled()) {
      entry.chunk = std::const_pointer_cast<Chunk>(std::move(data));
      CountAdd(CounterId::kStoreChunksAliased);
    } else {
      entry.chunk = std::make_shared<Chunk>(*data);
      CountAdd(CounterId::kStoreChunksDeepCopied);
    }
    if (backend_ != nullptr) {
      entry.stamp = (existed && it->second.stamp != nullptr)
                        ? it->second.stamp
                        : std::make_shared<std::atomic<uint64_t>>(0);
    }
    auto [pos, inserted] =
        chunks_.insert_or_assign(Key{array, chunk}, std::move(entry));
    TouchLocked(pos->second);
    if (backend_ != nullptr) {
      note = ResidencyNote{backend_, array, chunk,
                           pos->second.chunk->PhysicalSizeBytes(),
                           pos->second.stamp};
    }
  }
  Deliver(note);
  return bytes;
}

const Chunk* ChunkStore::Get(ArrayId array, ChunkId chunk) const {
  ResidencyNote note;
  const Chunk* result = nullptr;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    if (it != chunks_.end()) {
      FaultInLocked(it->first, it->second, &note);
      TouchLocked(it->second);
      result = it->second.chunk.get();
    }
  }
  Deliver(note);
  return result;
}

ChunkHandle ChunkStore::GetHandle(ArrayId array, ChunkId chunk) const {
  ResidencyNote note;
  ChunkHandle result;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    if (it != chunks_.end()) {
      FaultInLocked(it->first, it->second, &note);
      TouchLocked(it->second);
      result = it->second.chunk;
    }
  }
  Deliver(note);
  return result;
}

MutableChunkHandle ChunkStore::MakeWriterPin(std::shared_ptr<Chunk> chunk) {
  if (chunk == nullptr) return nullptr;
  struct Holder {
    Mutex* mu = nullptr;
    std::shared_ptr<Chunk> chunk;
    ~Holder() {
      MutexLock lock(*mu);
      chunk.reset();
    }
  };
  auto holder = std::make_shared<Holder>();
  holder->mu = &mu_;
  holder->chunk = std::move(chunk);
  Chunk* raw = holder->chunk.get();
  return MutableChunkHandle(std::move(holder), raw);
}

Chunk* ChunkStore::GetMutable(ArrayId array, ChunkId chunk) {
  return PinMutable(array, chunk).get();
}

MutableChunkHandle ChunkStore::PinMutable(ArrayId array, ChunkId chunk) {
  ResidencyNote note;
  MutableChunkHandle result;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    if (it == chunks_.end()) return nullptr;
    Entry& entry = it->second;
    const bool faulted = entry.spilled();
    FaultInLocked(it->first, entry, &note);
    if (!faulted &&
        (entry.chunk.use_count() > 1 || EpochPinsActive() > 0)) {
      // COW break: other replicas (or outstanding handles) may still
      // reference this Chunk; give this store a private copy before the
      // mutation. The use_count sole-owner fast path is sound only in the
      // quiesced configuration: whoever could concurrently bump the count
      // holds a handle already, so the count can only over-estimate. While a
      // view epoch is live that reasoning fails — snapshot readers clone
      // handles from the epoch on their own threads, so a transient
      // use_count of 1 proves nothing — and every mutation must copy. A
      // just-reloaded chunk needs no copy even then: the spill gate proved
      // sole ownership, and nothing can have acquired a handle since.
      entry.chunk = std::make_shared<Chunk>(*entry.chunk);
      CountAdd(CounterId::kStoreCowBreaks);
    }
    TouchLocked(entry);
    result = entry.chunk;
  }
  Deliver(note);
  return MakeWriterPin(std::move(result));
}

Chunk& ChunkStore::GetOrCreate(ArrayId array, ChunkId chunk, size_t num_dims,
                               size_t num_attrs) {
  return *PinOrCreate(array, chunk, num_dims, num_attrs);
}

MutableChunkHandle ChunkStore::PinOrCreate(ArrayId array, ChunkId chunk,
                                           size_t num_dims, size_t num_attrs) {
  ResidencyNote note;
  MutableChunkHandle result;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    if (it == chunks_.end()) {
      Entry entry;
      entry.chunk = std::make_shared<Chunk>(num_dims, num_attrs);
      if (backend_ != nullptr) {
        entry.stamp = std::make_shared<std::atomic<uint64_t>>(0);
      }
      it = chunks_.emplace(Key{array, chunk}, std::move(entry)).first;
      if (TelemetryEnabled()) {
        TrackResident(1, static_cast<int64_t>(it->second.chunk->SizeBytes()));
      }
      if (backend_ != nullptr) {
        note = ResidencyNote{backend_, array, chunk,
                             it->second.chunk->PhysicalSizeBytes(),
                             it->second.stamp};
      }
    } else {
      Entry& entry = it->second;
      const bool faulted = entry.spilled();
      FaultInLocked(it->first, entry, &note);
      if (!faulted &&
          (entry.chunk.use_count() > 1 || EpochPinsActive() > 0)) {
        // Same conservative rule as GetMutable; a freshly created entry
        // above needs no copy (nothing can reference it yet), nor does a
        // just-reloaded one.
        entry.chunk = std::make_shared<Chunk>(*entry.chunk);
        CountAdd(CounterId::kStoreCowBreaks);
      }
    }
    TouchLocked(it->second);
    result = it->second.chunk;
  }
  Deliver(note);
  return MakeWriterPin(std::move(result));
}

bool ChunkStore::Contains(ArrayId array, ChunkId chunk) const {
  MutexLock lock(mu_);
  return chunks_.find(Key{array, chunk}) != chunks_.end();
}

bool ChunkStore::IsAliased(ArrayId array, ChunkId chunk) const {
  MutexLock lock(mu_);
  auto it = chunks_.find(Key{array, chunk});
  return it != chunks_.end() && !it->second.spilled() &&
         it->second.chunk.use_count() > 1;
}

bool ChunkStore::IsSpilled(ArrayId array, ChunkId chunk) const {
  MutexLock lock(mu_);
  auto it = chunks_.find(Key{array, chunk});
  return it != chunks_.end() && it->second.spilled();
}

bool ChunkStore::PeekResidentBytes(ArrayId array, ChunkId chunk,
                                   uint64_t* bytes) const {
  MutexLock lock(mu_);
  auto it = chunks_.find(Key{array, chunk});
  if (it == chunks_.end() || it->second.spilled()) return false;
  // A pinned chunk may be under active mutation by the pin holder (the
  // pin-while-mutating rule), so its buffers cannot be sized safely from
  // this thread. Leave *bytes untouched — the caller keeps its last-known
  // size until the pin is released and the next sweep resizes it.
  if (it->second.chunk.use_count() == 1) {
    *bytes = it->second.chunk->PhysicalSizeBytes();
  }
  return true;
}

bool ChunkStore::Erase(ArrayId array, ChunkId chunk) {
  BufferBackend* notify = nullptr;
  {
    MutexLock lock(mu_);
    auto it = chunks_.find(Key{array, chunk});
    if (it == chunks_.end()) return false;
    if (it->second.spilled()) {
      // No resident-gauge delta (spill already moved it out) and no
      // NoteDropped (the manager dropped its slot at spill time).
      backend_->FreeSpill(it->second.ticket);
      GaugeAdd(GaugeId::kStoreSpilledChunks, -1);
      GaugeAdd(GaugeId::kStoreSpilledBytes,
               -static_cast<int64_t>(it->second.ticket.length));
      chunks_.erase(it);
      return true;
    }
    if (TelemetryEnabled()) {
      TrackResident(-1, -static_cast<int64_t>(it->second.chunk->SizeBytes()));
    }
    notify = backend_;
    chunks_.erase(it);
  }
  if (notify != nullptr) notify->NoteDropped(array, chunk);
  return true;
}

uint64_t ChunkStore::SizeBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, entry] : chunks_) {
    total += entry.spilled() ? entry.spilled_logical_bytes
                             : entry.chunk->SizeBytes();
  }
  return total;
}

ChunkStore::FormatResidency ChunkStore::ResidencyByFormat() const {
  MutexLock lock(mu_);
  FormatResidency r;
  for (const auto& [key, entry] : chunks_) {
    if (entry.spilled()) {
      ++r.spilled_chunks;
      r.spilled_bytes += entry.ticket.length;
    } else if (entry.chunk->rep() == ChunkRep::kSparse) {
      ++r.sparse_chunks;
      r.sparse_bytes += entry.chunk->PhysicalSizeBytes();
    } else {
      ++r.dense_chunks;
      r.dense_bytes += entry.chunk->PhysicalSizeBytes();
    }
  }
  return r;
}

void ChunkStore::ForEach(
    const std::function<void(ArrayId, ChunkId, const Chunk&)>& fn) const {
  // Snapshot the entries (handles keep the chunks alive) so fn runs outside
  // the lock and may call back into this store without self-deadlocking.
  // Spilled entries are faulted in while building the snapshot; the handles
  // then pin every chunk against re-eviction until the loop finishes.
  std::vector<std::pair<Key, ChunkHandle>> entries;
  std::vector<ResidencyNote> notes;
  {
    MutexLock lock(mu_);
    entries.reserve(chunks_.size());
    for (auto& [key, entry] : chunks_) {
      if (entry.spilled()) {
        ResidencyNote note;
        FaultInLocked(key, entry, &note);
        notes.push_back(std::move(note));
      }
      entries.emplace_back(key, entry.chunk);
    }
  }
  for (const auto& note : notes) Deliver(note);
  for (const auto& [key, chunk] : entries) {
    fn(key.first, key.second, *chunk);
  }
}

void ChunkStore::ForEachKey(
    const std::function<void(ArrayId, ChunkId)>& fn) const {
  std::vector<Key> keys;
  {
    MutexLock lock(mu_);
    keys.reserve(chunks_.size());
    for (const auto& [key, entry] : chunks_) keys.push_back(key);
  }
  for (const Key& key : keys) fn(key.first, key.second);
}

void ChunkStore::CheckInvariants() const {
  MutexLock lock(mu_);
  for (const auto& [key, entry] : chunks_) {
    if (entry.spilled()) {
      AVM_CHECK(entry.ticket.length > 0)
          << "store entry (" << key.first << ", " << key.second
          << ") is spilled with an empty ticket";
      continue;
    }
    AVM_CHECK(entry.chunk != nullptr)
        << "store entry (" << key.first << ", " << key.second
        << ") holds a null chunk handle";
    entry.chunk->CheckInvariants();
  }
}

size_t ChunkStore::EraseArray(ArrayId array) {
  size_t dropped = 0;
  std::vector<ChunkId> resident_dropped;
  BufferBackend* notify = nullptr;
  {
    MutexLock lock(mu_);
    int64_t bytes_dropped = 0;
    const bool telemetry = TelemetryEnabled();
    notify = backend_;
    auto it = chunks_.lower_bound(Key{array, 0});
    while (it != chunks_.end() && it->first.first == array) {
      if (it->second.spilled()) {
        backend_->FreeSpill(it->second.ticket);
        GaugeAdd(GaugeId::kStoreSpilledChunks, -1);
        GaugeAdd(GaugeId::kStoreSpilledBytes,
                 -static_cast<int64_t>(it->second.ticket.length));
      } else {
        if (telemetry) {
          bytes_dropped += static_cast<int64_t>(it->second.chunk->SizeBytes());
        }
        if (notify != nullptr) resident_dropped.push_back(it->first.second);
      }
      it = chunks_.erase(it);
      ++dropped;
    }
    if (telemetry && !resident_dropped.empty()) {
      TrackResident(-static_cast<int64_t>(resident_dropped.size()),
                    -bytes_dropped);
    } else if (telemetry && dropped > 0 && notify == nullptr) {
      // No backend: everything erased was resident.
      TrackResident(-static_cast<int64_t>(dropped), -bytes_dropped);
    }
  }
  if (notify != nullptr) {
    for (const ChunkId chunk : resident_dropped) {
      notify->NoteDropped(array, chunk);
    }
  }
  return dropped;
}

std::vector<ChunkStore::ResidentChunkInfo> ChunkStore::AttachBufferBackend(
    BufferBackend* backend) {
  AVM_CHECK(backend != nullptr) << "AttachBufferBackend(nullptr)";
  std::vector<ResidentChunkInfo> infos;
  MutexLock lock(mu_);
  AVM_CHECK(backend_ == nullptr)
      << "a buffer backend is already attached to this store";
  backend_ = backend;
  infos.reserve(chunks_.size());
  for (auto& [key, entry] : chunks_) {
    entry.stamp = std::make_shared<std::atomic<uint64_t>>(NextAccessTick());
    infos.push_back(ResidentChunkInfo{key.first, key.second,
                                      entry.chunk->PhysicalSizeBytes(),
                                      entry.stamp});
  }
  return infos;
}

void ChunkStore::DetachBufferBackend() {
  MutexLock lock(mu_);
  if (backend_ == nullptr) return;
  for (auto& [key, entry] : chunks_) {
    // No NoteResident: the manager is tearing its registry down anyway.
    FaultInLocked(key, entry, nullptr);
    entry.stamp.reset();
  }
  backend_ = nullptr;
}

uint64_t ChunkStore::TrySpill(ArrayId array, ChunkId chunk) {
  MutexLock lock(mu_);
  if (backend_ == nullptr) return 0;
  auto it = chunks_.find(Key{array, chunk});
  if (it == chunks_.end()) return 0;
  Entry& entry = it->second;
  if (entry.spilled()) return 0;
  // The pin test: a use_count above 1 means some replica, outstanding
  // handle, or live epoch still references this Chunk. Sound under mu_ even
  // with concurrent readers — cloning a handle for THIS entry requires this
  // lock or an already-counted handle, so the count can only over-estimate.
  if (entry.chunk.use_count() > 1) return 0;
  std::ostringstream out(std::ios::out | std::ios::binary);
  const Status saved = SaveChunk(*entry.chunk, out);
  AVM_CHECK(saved.ok()) << "chunk spill serialization failed for ("
                        << array << ", " << chunk
                        << "): " << saved.ToString();
  const std::string bytes = std::move(out).str();
  Result<SpillTicket> ticket = backend_->WriteSpill(bytes);
  AVM_CHECK(ticket.ok()) << "spill write failed for (" << array << ", "
                         << chunk << "): " << ticket.status().ToString();
  const uint64_t physical = entry.chunk->PhysicalSizeBytes();
  const int64_t logical = static_cast<int64_t>(entry.chunk->SizeBytes());
  entry.spilled_logical_bytes = static_cast<uint64_t>(logical);
  entry.ticket = *ticket;
  entry.chunk.reset();
  CountAdd(CounterId::kBufferEvictions);
  CountAdd(CounterId::kBufferBytesSpilled, bytes.size());
  GaugeAdd(GaugeId::kStoreSpilledChunks, 1);
  GaugeAdd(GaugeId::kStoreSpilledBytes, static_cast<int64_t>(bytes.size()));
  if (TelemetryEnabled()) TrackResident(-1, -logical);
  return physical;
}

}  // namespace avm
