#include "storage/table.h"

#include <algorithm>
#include <cstring>

namespace orthrus::storage {

namespace {
// Sentinel stored in Index::keys for an empty cell. Valid keys equal to the
// sentinel are rejected at insert.
constexpr std::uint64_t kEmptyKey = ~0ull;
}  // namespace

Table::Table(std::uint32_t id, std::string name, std::uint64_t capacity,
             std::uint32_t row_bytes, int num_partitions,
             hal::SlabArena* arena)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      row_bytes_(row_bytes),
      row_stride_((row_bytes + 7u) & ~7u),
      num_partitions_(num_partitions) {
  ORTHRUS_CHECK(capacity >= 1);
  ORTHRUS_CHECK(row_bytes >= 8);
  ORTHRUS_CHECK(num_partitions >= 1);
  if (arena != nullptr) {
    // Arena storage is already zeroed (fresh mmap pages, no reuse).
    rows_ = static_cast<std::uint8_t*>(
        arena->Allocate(capacity * row_stride_, kCacheLineSize));
  } else {
    // Default-initialised, so the huge-page advice precedes the first touch.
    // lint:allow-alloc schema setup, before any worker runs
    owned_rows_.reset(new std::uint8_t[capacity * row_stride_]);
    rows_ = owned_rows_.get();
    hal::AdviseHugePages(rows_, capacity * row_stride_);
    std::memset(rows_, 0, capacity * row_stride_);
  }

  // Size each partition's index for the worst case (all rows in one
  // partition would still fit); 2x occupancy headroom keeps probes short.
  const std::uint64_t per_part =
      NextPowerOfTwo(2 * (capacity / num_partitions + 1));
  indexes_.resize(num_partitions);
  for (Index& idx : indexes_) {
    idx.keys.reset(new std::uint64_t[per_part]);   // lint:allow-alloc setup
    idx.slots.reset(new std::uint64_t[per_part]);  // lint:allow-alloc setup
    hal::AdviseHugePages(idx.keys.get(), per_part * sizeof(std::uint64_t));
    hal::AdviseHugePages(idx.slots.get(), per_part * sizeof(std::uint64_t));
    std::fill_n(idx.keys.get(), per_part, kEmptyKey);
    std::fill_n(idx.slots.get(), per_part, kNoSlot);
    idx.mask = per_part - 1;
  }
  RecomputeCosts();
}

void Table::set_cost_model(const StorageCostModel& m) {
  cost_model_ = m;
  RecomputeCosts();
}

void Table::RecomputeCosts() {
  // Bytes of index metadata a probe walks over: keys + slots arrays of one
  // partition's index (the unit that competes for a core's cache).
  const std::uint64_t per_part_bytes =
      (indexes_.empty()
           ? 0
           : (indexes_[0].mask + 1) * 2 * sizeof(std::uint64_t));
  probe_cost_ = cost_model_.ProbeCost(per_part_bytes);
  row_cost_ = cost_model_.RowCost(row_bytes_);
  if (versions_enabled()) {
    version_install_cost_ = cost_model_.version_install_cycles + row_cost_;
    snapshot_read_cost_ = cost_model_.snapshot_read_cycles + row_cost_;
  }
}

void Table::EnableVersions() {
  if (version_meta_ == nullptr) {
    // Setup-time slabs: single-threaded enable, before any worker runs.
    version_rows_ =  // lint:allow-alloc setup
        std::make_unique<std::uint8_t[]>(capacity_ * 2 * row_stride_);
    version_meta_ =  // lint:allow-alloc setup
        std::make_unique<hal::Atomic<std::uint64_t>[]>(capacity_);
  }
  // (Re)seed slot 0 of every row from the main slab at the pre-first
  // epoch: after WAL recovery this folds the replayed images into the
  // snapshot baseline, exactly like a fresh load.
  for (std::uint64_t s = 0; s < capacity_; s++) {
    std::memcpy(VersionSlot(s, 0), RowBySlot(s), row_stride_);
    version_meta_[s].RawStore(PackMeta(0, EpochClock::kSeedEpoch - 1,
                                       EpochClock::kSeedEpoch - 1));
  }
  RecomputeCosts();
}

void Table::InstallVersion(std::uint64_t slot, std::uint64_t epoch,
                           EpochClock* clock, int hb_slot,
                           EpochClock::PublishCache* cache) {
  ORTHRUS_DCHECK(versions_enabled());
  ORTHRUS_DCHECK(slot < capacity_);
  ORTHRUS_CHECK_MSG(epoch <= kStampMask, "epoch overflows the stamp field");
  hal::ConsumeCycles(version_install_cost_);
  const std::uint64_t meta = version_meta_[slot].load();
  const std::uint64_t active = meta >> 63;
  const std::uint64_t s = (meta >> 31) & kStampMask;
  std::uint8_t* dst = nullptr;
  std::uint64_t next_meta = 0;
  if (s == epoch) {
    // Same-epoch re-install: overwrite the active slot in place. No live
    // snapshot can be reading it — the read epoch stays below `epoch`
    // until every epoch-`epoch` writer (including us, via the writer
    // heartbeat published before this install) publishes a newer one.
    dst = VersionSlot(slot, active);
    next_meta = meta;  // same stamps; the store is a pure release republish
  } else {
    // Install into the older slot. Reuse is gated on the reader floor:
    // once every worker's reader heartbeat is >= S, no live reader's
    // snapshot predates S, so nothing can still need the version being
    // dropped. The spin publishes our own reader heartbeat (we have no
    // snapshot read in flight) and offers ticks; epoch_clock.h proves this
    // makes the wait finite.
    while (clock->ReaderFloor() < s) {
      clock->PublishReader(hb_slot, clock->ReadEpoch(), cache);
      // Fold the mins ourselves instead of waiting out the tick interval:
      // the stall ends as soon as every worker has published, and the
      // commit epoch stays put (ticking here would shrink the same-epoch
      // fast path above and manufacture the next slow install).
      clock->FoldMins();
      clock->MaybeTick(hal::Now());
      hal::CpuRelax();
    }
    dst = VersionSlot(slot, 1 - active);
    next_meta = PackMeta(1 - active, epoch, s);
  }
  hal::RaceCheck(dst, row_stride_, /*is_write=*/true,
                 "storage.version.install");
  std::memcpy(dst, RowBySlot(slot), row_stride_);
  // Epoch-stamp publication: the release that orders the copy above before
  // every future snapshot read of this row.
  version_meta_[slot].store(next_meta);
}

bool Table::SnapshotRead(std::uint64_t slot, std::uint64_t read_epoch,
                         void* dst) {
  ORTHRUS_DCHECK(versions_enabled());
  ORTHRUS_DCHECK(slot < capacity_);
  hal::ConsumeCycles(snapshot_read_cost_);
  const std::uint64_t meta = version_meta_[slot].load();
  const std::uint64_t active = meta >> 63;
  const std::uint64_t s = (meta >> 31) & kStampMask;
  const std::uint64_t p = meta & kStampMask;
  std::uint64_t which = 0;
  if (s <= read_epoch) {
    which = active;
  } else if (p <= read_epoch) {
    which = 1 - active;
  } else {
    return false;  // written twice since read_epoch: snapshot too old
  }
  const std::uint8_t* src = VersionSlot(slot, which);
  hal::RaceCheck(src, row_stride_, /*is_write=*/false,
                 "storage.version.read");
  std::memcpy(dst, src, row_stride_);
  return true;
}

void* Table::Insert(std::uint64_t key, int partition) {
  ORTHRUS_CHECK(key != kEmptyKey);
  ORTHRUS_CHECK(partition >= 0 && partition < num_partitions_);
  ORTHRUS_CHECK_MSG(size_ + reserved_ < capacity_, "table full");
  Index& idx = indexes_[partition];
  ORTHRUS_CHECK_MSG(idx.used * 2 <= idx.mask + 1, "index overfull");
  std::uint64_t pos = HashKey(key) & idx.mask;
  while (idx.keys[pos] != kEmptyKey) {
    ORTHRUS_CHECK_MSG(idx.keys[pos] != key, "duplicate key");
    pos = (pos + 1) & idx.mask;
  }
  const std::uint64_t slot = size_++;
  idx.keys[pos] = key;
  idx.slots[pos] = slot;
  idx.used++;
  return RowBySlot(slot);
}

void* Table::Lookup(std::uint64_t key, int partition) {
  hal::ConsumeCycles(probe_cost_);
  return LookupRaw(key, partition);
}

void* Table::LookupRaw(std::uint64_t key, int partition) const {
  ORTHRUS_DCHECK(partition >= 0 && partition < num_partitions_);
  const Index& idx = indexes_[partition];
  std::uint64_t pos = HashKey(key) & idx.mask;
  while (idx.keys[pos] != kEmptyKey) {
    if (idx.keys[pos] == key) {
      return const_cast<Table*>(this)->RowBySlot(idx.slots[pos]);
    }
    pos = (pos + 1) & idx.mask;
  }
  return nullptr;
}

std::uint64_t Table::ReserveSlots(std::uint64_t n) {
  ORTHRUS_CHECK_MSG(size_ + reserved_ + n <= capacity_,
                    "append region exceeds table capacity");
  // Reserved slots grow down from the top of the slab so they never collide
  // with index-inserted rows growing up from slot 0.
  reserved_ += n;
  return capacity_ - reserved_;
}

}  // namespace orthrus::storage
