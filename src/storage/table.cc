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
             std::uint32_t row_bytes, int num_partitions)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      row_bytes_(row_bytes),
      row_stride_((row_bytes + 7u) & ~7u),
      num_partitions_(num_partitions) {
  ORTHRUS_CHECK(capacity >= 1);
  ORTHRUS_CHECK(row_bytes >= 8);
  ORTHRUS_CHECK(num_partitions >= 1);
  // Default-initialised, so the huge-page advice precedes the first touch.
  // lint:allow-alloc schema setup, before any worker runs
  rows_.reset(new std::uint8_t[capacity * row_stride_]);
  hal::AdviseHugePages(rows_.get(), capacity * row_stride_);
  std::memset(rows_.get(), 0, capacity * row_stride_);

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
