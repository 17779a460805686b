// The lock table a CC thread keeps for its partition of the lock space.
//
// It holds only *live* locks: a lock enters the table with its first queued
// request and leaves it when a release empties its FIFO queue. An in-flight
// transaction queues at most kMaxAccesses requests, so the live count is
// bounded by n_exec * max_inflight * kMaxAccesses no matter how many
// distinct keys a run touches. The table is sized once at setup from that
// bound and never grows; crossing the bound is a CHECK failure.
//
// Layout: one open-addressed, linearly probed array whose entries carry
// their (table, key) and the lock state inline, so a probe compares keys
// without leaving the array, and the array is small enough to stay
// cache-resident. Erase uses backward-shift deletion (no tombstones), which
// moves entries: a CcLock pointer is valid only until the next Erase on the
// same table. No synchronization: each CC thread owns its table.
#ifndef ORTHRUS_ENGINE_ORTHRUS_CC_LOCK_TABLE_H_
#define ORTHRUS_ENGINE_ORTHRUS_CC_LOCK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace orthrus::engine {

// Modeled CPU work per partition-local lock insert or release, in cycles.
// Lower than the shared lock table's per-op cost (lock::kLockOpCycles):
// a CC thread's instructions and lock meta-data stay cache-resident because
// the thread does nothing else, the cache-locality benefit of partitioned
// functionality (Sections 2.1 and 3.1).
inline constexpr std::uint64_t kCcOpCycles = 12;

// One live lock: its key and the FIFO queue of `Request` nodes on it (the
// engine keeps those in the requesting transactions' TCBs). A lock with a
// non-empty queue is live; the empty-queue state exists only between
// FindOrInsert and the caller's enqueue, and before the Erase that follows
// the last unlink.
template <typename Request>
struct CcLock {
  static constexpr std::uint32_t kFreeSlot = ~std::uint32_t{0};

  std::uint64_t key = 0;
  std::uint32_t table = kFreeSlot;  // kFreeSlot marks an empty array slot
  std::uint32_t queued_x = 0;       // exclusive requests in the queue
  Request* head = nullptr;
  Request* tail = nullptr;
};

template <typename Request>
class CcLockTable {
 public:
  using Lock = CcLock<Request>;

  // `max_live` is the most locks that can ever be live at once. The array
  // keeps its load factor at or below 1/2 at that bound.
  explicit CcLockTable(std::size_t max_live)
      : max_live_(max_live),
        mask_(NextPowerOfTwo(2 * (max_live > 0 ? max_live : 1)) - 1),
        slots_(mask_ + 1) {}

  // The live lock for (table, key), or null.
  Lock* Find(std::uint32_t table, std::uint64_t key) {
    for (std::size_t pos = Home(table, key);; pos = (pos + 1) & mask_) {
      Lock& l = slots_[pos];
      if (l.table == Lock::kFreeSlot) return nullptr;
      if (l.key == key && l.table == table) return &l;
    }
  }

  // The live lock for (table, key), inserting an empty one when absent.
  Lock* FindOrInsert(std::uint32_t table, std::uint64_t key) {
    ORTHRUS_DCHECK(table != Lock::kFreeSlot);
    std::size_t pos = Home(table, key);
    for (;; pos = (pos + 1) & mask_) {
      Lock& l = slots_[pos];
      if (l.table == Lock::kFreeSlot) break;
      if (l.key == key && l.table == table) return &l;
    }
    ORTHRUS_CHECK_MSG(used_ < max_live_,
                      "CC lock table over its live-lock bound");
    Lock& l = slots_[pos];
    l.key = key;
    l.table = table;
    used_++;
    if (used_ > high_water_) high_water_ = used_;
    return &l;
  }

  // Removes `lock` (whose queue must be empty) by shifting each later
  // entry of its probe run back into the hole when the hole lies between
  // that entry's home slot and its current slot.
  void Erase(Lock* lock) {
    ORTHRUS_DCHECK(lock->head == nullptr && lock->queued_x == 0);
    std::size_t hole = static_cast<std::size_t>(lock - slots_.data());
    for (std::size_t pos = (hole + 1) & mask_;; pos = (pos + 1) & mask_) {
      const Lock& l = slots_[pos];
      if (l.table == Lock::kFreeSlot) break;
      const std::size_t home = Home(l.table, l.key);
      if (((pos - home) & mask_) >= ((pos - hole) & mask_)) {
        slots_[hole] = l;
        hole = pos;
      }
    }
    slots_[hole] = Lock{};
    used_--;
  }

  std::size_t used() const { return used_; }
  std::size_t high_water() const { return high_water_; }
  std::size_t slots() const { return mask_ + 1; }

  // Home slot of (table, key); exposed so tests can build colliding keys.
  std::size_t Home(std::uint32_t table, std::uint64_t key) const {
    const std::uint64_t h =
        (key ^ (static_cast<std::uint64_t>(table) << 56)) *
        0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & mask_;
  }

 private:
  std::size_t max_live_;
  std::size_t mask_;
  std::vector<Lock> slots_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_ORTHRUS_CC_LOCK_TABLE_H_
