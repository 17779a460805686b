// Latch-free multi-producer / single-consumer ring buffer.
//
// The SPSC mesh fixes the sender population at construction time: every
// (sender, receiver) pair owns a queue, so adding an execution thread means
// rebuilding every matrix. MpscQueue relaxes exactly the producer side —
// any number of anonymous producers share one ring per receiver — which is
// what a mesh with a changing sender population needs (MultiMesh).
//
// Protocol: producers CAS-reserve a range of slots on a shared reservation
// index, write their payload words into the reserved range, then publish
// the shared tail in reservation order (each producer waits until the tail
// reaches its reserved start before bumping it past its range — a short,
// bounded wait, since every predecessor only has its own payload left to
// write). The consumer side is identical to SpscQueue: one reader, cached
// tail, one head publication per pop/batch. Payload words live in the same
// line-packed blocks (detail::LineRing), so the per-message coherence cost
// model matches the SPSC queue exactly; what changes is the producers' CAS
// on the reservation index — the synchronization the paper's per-pair
// design avoids, priced here so meshes can trade it for flexibility.
#ifndef ORTHRUS_MP_MPSC_QUEUE_H_
#define ORTHRUS_MP_MPSC_QUEUE_H_

#include <cstdint>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/line_ring.h"

namespace orthrus::mp {

template <typename T>
class MpscQueue {
 public:
  static constexpr std::size_t kMsgsPerLine = detail::LineRing<T>::kMsgsPerLine;

  // Capacity must be a power of two (index masking).
  explicit MpscQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  // Producer side (any thread). Returns false when the queue is full.
  bool TryEnqueue(T value) { return PushBatch(&value, 1) == 1; }

  // Producer side, batched: reserves up to `n` slots with one CAS, writes
  // them, and publishes the tail once for the whole batch. Returns how many
  // were enqueued (0 when full, a partial batch when nearly full).
  std::size_t PushBatch(const T* values, std::size_t n) {
    if (n == 0) return 0;
    std::uint64_t start = reserve_.load();
    std::size_t count;
    for (;;) {
      const std::size_t free_slots =
          capacity_ - static_cast<std::size_t>(start - head_.load());
      if (free_slots == 0) return 0;
      count = n < free_slots ? n : free_slots;
      // Failure refreshes `start` with the current reservation index.
      if (reserve_.compare_exchange(start, start + count)) break;
    }
    for (std::size_t i = 0; i < count; ++i) {
      ring_.Store(start + i, values[i]);
    }
    // Publish in reservation order: the tail must sweep past every
    // predecessor's range before ours becomes visible, or the consumer
    // would read slots that are reserved but not yet written. The wait is
    // bounded by peer progress (a predecessor only has its own payload
    // left to write), so it is CHECK-bounded only under the simulator,
    // where fibers are never preempted and a long stall really is a
    // protocol bug; on native hardware the OS may preempt a reserving
    // producer for arbitrarily long, and no spin bound is sound.
    hal::CoreContext* core = hal::CurrentCore();
    const bool bounded =
        core != nullptr && core->platform->is_simulated();
    std::uint64_t spins = 0;
    while (tail_.load() != start) {
      hal::CpuRelax();
      if (bounded) {
        ORTHRUS_CHECK_MSG(++spins < (1ull << 26),
                          "mpsc tail publication stalled: a reserving "
                          "producer died mid-push");
      }
    }
    tail_.store(start + count);
    return count;
  }

  // Consumer side (single thread). Returns false when the queue is empty.
  bool TryDequeue(T* out) {
    if (head_local_ == tail_cache_) {
      tail_cache_ = tail_.load();
      if (head_local_ == tail_cache_) return false;
    }
    *out = ring_.Load(head_local_);
    head_local_++;
    head_.store(head_local_);
    return true;
  }

  // Consumer side, batched: dequeues up to `n` values in one contiguous
  // grab, publishing the head once for the whole batch. An empty poll
  // stays read-only — publishing an unchanged head would dirty a line
  // every producer reads for its free-slot check.
  std::size_t PopBatch(T* out, std::size_t n) {
    if (n == 0) return 0;
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head_local_);
    if (avail < n) {
      tail_cache_ = tail_.load();
      avail = static_cast<std::size_t>(tail_cache_ - head_local_);
      if (avail == 0) return 0;
    }
    const std::size_t count = n < avail ? n : avail;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = ring_.Load(head_local_ + i);
    }
    head_local_ += count;
    head_.store(head_local_);
    return count;
  }

  // Consumer-side emptiness probe (refreshes the cached tail).
  bool Empty() {
    if (head_local_ != tail_cache_) return false;
    tail_cache_ = tail_.load();
    return head_local_ == tail_cache_;
  }

  // Unmodeled size snapshot for tests / teardown assertions only.
  std::size_t SizeRaw() const {
    return static_cast<std::size_t>(tail_.RawLoad() - head_.RawLoad());
  }

 private:
  const std::size_t capacity_;
  detail::LineRing<T> ring_;

  // Shared indices. `reserve_` is CAS-bumped by producers to claim slots;
  // `tail_` publishes written slots to the consumer; `head_` is written by
  // the consumer only.
  hal::Atomic<std::uint64_t> reserve_{0};
  hal::Atomic<std::uint64_t> tail_{0};
  hal::Atomic<std::uint64_t> head_{0};

  // Consumer-private state (plain memory: single owner).
  alignas(kCacheLineSize) std::uint64_t head_local_ = 0;
  std::uint64_t tail_cache_ = 0;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_MPSC_QUEUE_H_
