// Latch-free single-producer / single-consumer ring buffer — the message-
// passing substrate of Section 3.1.
//
// The paper's key observation: a single shared input queue per concurrency-
// control thread would reintroduce the very synchronization bottleneck the
// design is trying to remove, so each (sender, receiver) pair gets its own
// queue with exactly one writer and one reader. With one writer and one
// reader, a Lamport ring buffer needs no atomic read-modify-writes at all:
// the producer only stores to the tail, the consumer only stores to the
// head, and each side caches the other's index so steady-state operations
// touch remote state only when the cached view is exhausted.
//
// Payload words are packed into cache-line blocks (detail::LineRing), so a
// burst of messages costs one modeled line transfer per kMsgsPerLine
// messages rather than one per message, and the batched PushBatch/PopBatch
// operations additionally publish the shared index once per batch instead
// of once per message. The unbatched TryEnqueue/TryDequeue remain for
// callers that need per-message delivery (and as the ablation baseline).
#ifndef ORTHRUS_MP_SPSC_QUEUE_H_
#define ORTHRUS_MP_SPSC_QUEUE_H_

#include <cstdint>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/line_ring.h"

namespace orthrus::mp {

template <typename T>
class SpscQueue {
 public:
  // Messages sharing one (modeled) cache line of payload.
  static constexpr std::size_t kMsgsPerLine = detail::LineRing<T>::kMsgsPerLine;

  // Capacity must be a power of two (index masking).
  explicit SpscQueue(std::size_t capacity)
      : capacity_(capacity), ring_(capacity) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  // Producer side. Returns false when the queue is full.
  bool TryEnqueue(T value) {
    if (tail_local_ - head_cache_ >= capacity_) {
      head_cache_ = head_.load();
      if (tail_local_ - head_cache_ >= capacity_) return false;
    }
    ring_.Store(tail_local_, value);
    tail_local_++;
    tail_.store(tail_local_);
    return true;
  }

  // Producer side, batched: enqueues up to `n` values, publishing the tail
  // index once for the whole batch. Returns how many were enqueued (0 when
  // full, a partial batch when the ring is nearly full).
  std::size_t PushBatch(const T* values, std::size_t n) {
    if (n == 0) return 0;
    std::size_t free_slots =
        capacity_ - static_cast<std::size_t>(tail_local_ - head_cache_);
    if (free_slots < n) {
      head_cache_ = head_.load();
      free_slots =
          capacity_ - static_cast<std::size_t>(tail_local_ - head_cache_);
      if (free_slots == 0) return 0;
    }
    const std::size_t count = n < free_slots ? n : free_slots;
    for (std::size_t i = 0; i < count; ++i) {
      ring_.Store(tail_local_ + i, values[i]);
    }
    tail_local_ += count;
    tail_.store(tail_local_);
    return count;
  }

  // Consumer side. Returns false when the queue is empty.
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

  // Consumer side, batched: dequeues up to `n` values, publishing the head
  // index once for the whole batch. Returns how many were dequeued (0 when
  // empty, a partial batch when fewer than `n` are waiting).
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

  // Shared indices (each written by exactly one side).
  hal::Atomic<std::uint64_t> head_{0};  // written by consumer
  hal::Atomic<std::uint64_t> tail_{0};  // written by producer

  // Producer-private state (plain memory: single owner).
  alignas(kCacheLineSize) std::uint64_t tail_local_ = 0;
  std::uint64_t head_cache_ = 0;

  // Consumer-private state.
  alignas(kCacheLineSize) std::uint64_t head_local_ = 0;
  std::uint64_t tail_cache_ = 0;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_SPSC_QUEUE_H_
