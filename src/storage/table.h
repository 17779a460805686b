// Fixed-capacity in-memory table: a slab of rows plus an open-addressing
// hash index from 64-bit keys to row slots. The owned row slab and every
// index array are advised onto transparent huge pages
// (hal::AdviseHugePages) before their first touch, so an index probe or a
// row prefetch rarely has to walk the page table first.
//
// Loading is single-threaded (setup time). At run time the primary index is
// read-only — TPC-C's inserts (orders, order lines, history) go to append
// regions whose placement is derived from counters already protected by the
// workload's own logical locks, so the index needs no latching. This mirrors
// the paper's scope: it studies concurrency control, explicitly leaving
// index contention to complementary work (PLP).
//
// Each table has exactly one index. Section 4.3's SPLIT variants (one
// sub-index per partition) are not reproduced: see README "One index per
// table".
#ifndef ORTHRUS_STORAGE_TABLE_H_
#define ORTHRUS_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "hal/hal.h"
#include "storage/storage_cost.h"

namespace orthrus::storage {

inline constexpr std::uint64_t kNoSlot = ~0ull;

class Table {
 public:
  // `id`: catalog id. `capacity`: max rows. `row_bytes`: payload size.
  Table(std::uint32_t id, std::string name, std::uint64_t capacity,
        std::uint32_t row_bytes);

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t size() const { return size_; }
  std::uint32_t row_bytes() const { return row_bytes_; }
  // Slab stride per row: row_bytes rounded up to 8-byte alignment, so the
  // word-granular access every workload performs is never misaligned even
  // for odd payload sizes (100B YCSB rows, 1000B paper-scale rows).
  std::uint32_t row_stride() const { return row_stride_; }

  // --- Setup-time API (single-threaded) --------------------------------

  // Inserts a new key, returning its row pointer. Aborts on duplicate key
  // or capacity overflow: loaders are deterministic, so either is a bug.
  void* Insert(std::uint64_t key);

  // --- Run-time API ----------------------------------------------------

  // Returns the row for `key` or nullptr. Charges the modeled probe cost.
  void* Lookup(std::uint64_t key);

  // Probe without the modeled charge (verification / loaders).
  void* LookupRaw(std::uint64_t key) const;

  // Index hash: a probe for `key` starts at cell HashKey(key) & mask.
  // Fibonacci hashing with an extra xor-fold; cheap and well-spread for the
  // structured keys TPC-C uses.
  static std::uint64_t HashKey(std::uint64_t key) {
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
  }

  // Prefetches the index line holding the key where a probe for `key`
  // starts. Charges nothing and reads nothing; a probe that runs past that
  // line still works, it just misses once more.
  void PrefetchIndex(std::uint64_t key) const {
    hal::Prefetch(&index_.keys[HashKey(key) & index_.mask]);
  }

  // Slot number of a row pointer previously returned by Lookup/Insert/
  // RowBySlot. Used by the redo log to address rows stably across processes
  // (pointers die with the process; slots survive into a reloaded slab).
  std::uint64_t SlotOfRow(const void* row) const {
    const auto* p = static_cast<const std::uint8_t*>(row);
    ORTHRUS_DCHECK(p >= rows_.get() &&
                   p < rows_.get() + capacity_ * row_stride_);
    return static_cast<std::uint64_t>(p - rows_.get()) / row_stride_;
  }

  // Row address by slot number (append-region style access).
  void* RowBySlot(std::uint64_t slot) {
    ORTHRUS_DCHECK(slot < capacity_);
    return rows_.get() + slot * row_stride_;
  }
  const void* RowBySlot(std::uint64_t slot) const {
    ORTHRUS_DCHECK(slot < capacity_);
    return rows_.get() + slot * row_stride_;
  }

  // Allocates `n` fresh slots from the tail of the slab without touching the
  // hash index. Setup-time only; used to reserve append regions.
  std::uint64_t ReserveSlots(std::uint64_t n);

  // Modeled cost of touching one row of this table.
  hal::Cycles RowAccessCost() const { return row_cost_; }

  // Modeled cost of one index probe (grows with the index's size).
  hal::Cycles ProbeCost() const { return probe_cost_; }

  const StorageCostModel& cost_model() const { return cost_model_; }
  void set_cost_model(const StorageCostModel& m);

 private:
  struct Index {
    // mask + 1 cells each; an all-ones key marks an empty cell.
    std::unique_ptr<std::uint64_t[]> keys;
    std::unique_ptr<std::uint64_t[]> slots;
    std::uint64_t mask = 0;
    std::uint64_t used = 0;
  };

  void RecomputeCosts();

  std::uint32_t id_;
  std::string name_;
  std::uint64_t capacity_;
  std::uint32_t row_bytes_;
  std::uint32_t row_stride_;
  std::uint64_t size_ = 0;       // rows inserted through the index
  std::uint64_t reserved_ = 0;   // slots handed out by ReserveSlots
  std::unique_ptr<std::uint8_t[]> rows_;
  Index index_;
  StorageCostModel cost_model_;
  hal::Cycles probe_cost_ = 0;
  hal::Cycles row_cost_ = 0;
};

}  // namespace orthrus::storage

#endif  // ORTHRUS_STORAGE_TABLE_H_
