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
             std::uint32_t row_bytes)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      row_bytes_(row_bytes),
      row_stride_((row_bytes + 7u) & ~7u) {
  ORTHRUS_CHECK(capacity >= 1);
  ORTHRUS_CHECK(row_bytes >= 8);
  // Default-initialised, so the huge-page advice precedes the first touch.
  // lint:allow-alloc schema setup, before any worker runs
  rows_.reset(new std::uint8_t[capacity * row_stride_]);
  hal::AdviseHugePages(rows_.get(), capacity * row_stride_);
  std::memset(rows_.get(), 0, capacity * row_stride_);

  // 2x occupancy headroom keeps probes short.
  const std::uint64_t cells = NextPowerOfTwo(2 * (capacity + 1));
  index_.keys.reset(new std::uint64_t[cells]);   // lint:allow-alloc setup
  index_.slots.reset(new std::uint64_t[cells]);  // lint:allow-alloc setup
  hal::AdviseHugePages(index_.keys.get(), cells * sizeof(std::uint64_t));
  hal::AdviseHugePages(index_.slots.get(), cells * sizeof(std::uint64_t));
  std::fill_n(index_.keys.get(), cells, kEmptyKey);
  std::fill_n(index_.slots.get(), cells, kNoSlot);
  index_.mask = cells - 1;
  RecomputeCosts();
}

void Table::set_cost_model(const StorageCostModel& m) {
  cost_model_ = m;
  RecomputeCosts();
}

void Table::RecomputeCosts() {
  // Bytes of index metadata a probe walks over: the keys + slots arrays.
  probe_cost_ =
      cost_model_.ProbeCost((index_.mask + 1) * 2 * sizeof(std::uint64_t));
  row_cost_ = cost_model_.RowCost(row_bytes_);
}

void* Table::Insert(std::uint64_t key) {
  ORTHRUS_CHECK(key != kEmptyKey);
  ORTHRUS_CHECK_MSG(size_ + reserved_ < capacity_, "table full");
  Index& idx = index_;
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

void* Table::Lookup(std::uint64_t key) {
  hal::ConsumeCycles(probe_cost_);
  return LookupRaw(key);
}

void* Table::LookupRaw(std::uint64_t key) const {
  const Index& idx = index_;
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
