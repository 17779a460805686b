// QueueMesh: the message-passing substrate of Section 3.1 — the full
// (sender x receiver) matrix of latch-free single-producer/single-consumer
// rings that wires a set of threads together. ORTHRUS needs three of these
// (exec->CC acquire/release, CC->CC forwarding, CC->exec grant/ack) and the
// WAL one (producer->logger).
//
// The paper's key observation: a single shared input queue per concurrency-
// control thread would reintroduce the very synchronization bottleneck the
// design is trying to remove, so each (sender, receiver) pair gets its own
// ring with exactly one writer and one reader. With one writer and one
// reader, a Lamport ring needs no atomic read-modify-writes at all: the
// sender only stores to the tail, the receiver only stores to the head, and
// each side caches the other's index so steady-state operations touch remote
// state only when the cached view is exhausted.
//
// Messages are word-sized, so payload words are packed into cache-line
// blocks: a burst costs one modeled line transfer per kMsgsPerLine messages
// rather than one per message. Payload words are relaxed std::atomics — the
// release-store / acquire-load of the ring's shared index orders them
// (Lamport), and an explicit line touch charges the modeled cost, exactly
// what hal::Atomic does but at one line per kMsgsPerLine messages.
//
// The mesh offers the two operations the hot paths are built from:
//
//  * Send: blocking enqueue with a wedge diagnostic. Ring capacities are
//    provable bounds on outstanding messages per pair, so a full ring that
//    stays full is a protocol bug, not backpressure.
//  * Drain: bounded delivery of what is addressed to one receiver. Each call
//    pops at most kMsgsPerLine messages per sender and publishes that ring's
//    head once, so a sender that keeps publishing cannot hold the receiver
//    on its ring while the others wait. Callers that need the rings empty
//    loop until Drain returns 0.
#ifndef ORTHRUS_MP_QUEUE_MESH_H_
#define ORTHRUS_MP_QUEUE_MESH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"

namespace orthrus::mp {

namespace detail {

// Polite spin for blocking sends. Ring capacities are provable bounds on
// outstanding messages per pair, so a full ring that stays full is a
// protocol bug, not backpressure: the spin CHECK-fails once the wait has
// outlived any legal protocol state. QueueMesh::Send spins on it.
//
// The tight bound is sound only under the simulator, where fibers are
// never preempted. On native hardware the OS can park the receiver across
// many scheduling quanta, keeping the ring full, so the native bound is
// ~2^6 times looser: seconds of continuous spinning, beyond any plausible
// preemption stall, while still turning a genuine protocol wedge into a
// crisp CHECK failure instead of a silent CI-timeout hang.
class WedgeSpin {
 public:
  WedgeSpin() {
    hal::CoreContext* core = hal::CurrentCore();
    const bool simulated = core != nullptr && core->simulated;
    bound_ = simulated ? (1ull << 26) : (1ull << 32);
    sink_ = core != nullptr ? core->send_stall_sink : nullptr;
  }

  // Stall accounting: a blocking send that had to pause at least once counts
  // as one stall, and its wait is charged to the core's registered sink so
  // backpressure is observable (see WorkerStats::send_stalls). Timestamps
  // are taken lazily — a send that never blocks reads no clock — so an
  // installed sink changes nothing about modeled costs.
  ~WedgeSpin() {
    if (sink_ != nullptr && spins_ > 0) {
      sink_->stalls++;
      sink_->stall_cycles += hal::Now() - started_at_;
    }
  }

  void Pause() {
    if (spins_ == 0 && sink_ != nullptr) started_at_ = hal::Now();
    hal::CpuRelax();
    ORTHRUS_CHECK_MSG(++spins_ < bound_,
                      "message queue wedged: capacity bound violated");
  }

 private:
  std::uint64_t bound_ = 1ull << 26;
  std::uint64_t spins_ = 0;
  hal::Cycles started_at_ = 0;
  hal::SpinStallSink* sink_ = nullptr;
};

}  // namespace detail

template <typename T>
class QueueMesh {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8 &&
                    IsPowerOfTwo(sizeof(T)),
                "mesh payloads are word-sized messages");

 public:
  // Messages sharing one (modeled) cache line of payload.
  static constexpr std::size_t kMsgsPerLine = kCacheLineSize / sizeof(T);

  QueueMesh() = default;

  QueueMesh(int senders, int receivers, std::size_t capacity) {
    Reset(senders, receivers, capacity);
  }

  QueueMesh(const QueueMesh&) = delete;
  QueueMesh& operator=(const QueueMesh&) = delete;

  // (Re)builds the matrix. All rings share one capacity, a power of two
  // (index masking): the caller's provable per-pair bound on outstanding
  // messages.
  void Reset(int senders, int receivers, std::size_t capacity) {
    ORTHRUS_CHECK(senders >= 1 && receivers >= 1);
    ORTHRUS_CHECK(IsPowerOfTwo(capacity));
    senders_ = senders;
    receivers_ = receivers;
    rings_.clear();
    rings_.reserve(static_cast<std::size_t>(senders) * receivers);
    for (int i = 0; i < senders * receivers; ++i) {
      // lint:allow-alloc setup
      rings_.push_back(std::make_unique<Ring>(capacity));
    }
  }

  int senders() const { return senders_; }
  int receivers() const { return receivers_; }

  // Blocking send on the (sender, receiver) pair's ring. Spins (politely)
  // while full, reloading the receiver's head on every retry; CHECK-fails
  // if the ring stays full long enough that the capacity bound must have
  // been violated.
  void Send(int sender, int receiver, T value) {
    Ring& r = RingOf(sender, receiver);
    detail::WedgeSpin spin;
    while (r.tail_local - r.head_cache >= r.capacity) {
      r.head_cache = r.head.load();
      if (r.tail_local - r.head_cache >= r.capacity) spin.Pause();
    }
    Word& word = r.At(r.tail_local, hal::MemOp::kStore);
    word.store(value, std::memory_order_relaxed);
    r.tail_local++;
    r.tail.store(r.tail_local);
  }

  // Delivers what is addressed to `receiver`, invoking fn(message) on each
  // message in per-sender FIFO order: senders visited in fixed order
  // 0..N-1, at most kMsgsPerLine messages per sender per call, each ring's
  // head published once before its messages are handed to fn. The bound is
  // the fairness contract: a sender that publishes message by message, even
  // from inside fn, cannot keep the receiver on its ring past one line.
  // Returns messages delivered.
  template <typename Fn>
  std::size_t Drain(int receiver, Fn&& fn) {
    T buf[kMsgsPerLine];
    std::size_t delivered = 0;
    for (int s = 0; s < senders_; ++s) {
      Ring& r = RingOf(s, receiver);
      std::size_t avail = static_cast<std::size_t>(r.tail_cache - r.head_local);
      if (avail < kMsgsPerLine) {
        r.tail_cache = r.tail.load();
        avail = static_cast<std::size_t>(r.tail_cache - r.head_local);
        if (avail == 0) continue;
      }
      const std::size_t n = avail < kMsgsPerLine ? avail : kMsgsPerLine;
      for (std::size_t i = 0; i < n; ++i) {
        Word& word = r.At(r.head_local + i, hal::MemOp::kLoad);
        buf[i] = word.load(std::memory_order_relaxed);
      }
      r.head_local += n;
      r.head.store(r.head_local);
      for (std::size_t i = 0; i < n; ++i) fn(buf[i]);
      delivered += n;
    }
    return delivered;
  }

  // Unmodeled aggregate occupancy, for tests and teardown assertions.
  std::size_t SizeRawTotal() const {
    std::size_t total = 0;
    for (const auto& r : rings_) {
      total += static_cast<std::size_t>(r->tail.RawLoad() - r->head.RawLoad());
    }
    return total;
  }

 private:
  // Raw std::atomic is deliberate here: a payload word's line is modeled
  // explicitly via OnAtomicAccess against its Line's `meta`, amortizing one
  // hal::Atomic-equivalent charge over kMsgsPerLine words (the whole point
  // of line packing).
  using Word = std::atomic<T>;  // lint:allow-raw-atomic

  // A line-sized block of payload words plus the simulator's coherence
  // metadata for it.
  struct alignas(kCacheLineSize) Line {
    Word words[kMsgsPerLine];
    hal::LineMeta meta;
  };

  // One (sender, receiver) pair's Lamport ring.
  struct Ring {
    explicit Ring(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          word_mask(WordsPerLine(cap) - 1),
          line_shift(Log2(WordsPerLine(cap))) {
      const std::size_t n = cap / WordsPerLine(cap);
      lines = std::make_unique<Line[]>(n);  // lint:allow-alloc setup
      for (std::size_t i = 0; i < n; ++i) {
        // Payload touches are coherence charges, not synchronization: the
        // words are relaxed, ordered only by the index atomics. The race
        // detector checks them as plain data instead (RaceCheck in At) —
        // see LineMeta::sync_var.
        lines[i].meta.sync_var = false;
      }
    }

    // The payload word for ring index `idx`, after charging its line's
    // modeled access and race-checking it as plain data.
    Word& At(std::uint64_t idx, hal::MemOp op) {
      const std::size_t pos = static_cast<std::size_t>(idx) & mask;
      Line& line = lines[pos >> line_shift];
      hal::CoreContext* cc = hal::CurrentCore();
      if (cc != nullptr && cc->simulated) {
        cc->platform->OnAtomicAccess(&line.meta, op);
      }
      Word& word = line.words[pos & word_mask];
      hal::RaceCheck(&word, sizeof(T), /*is_write=*/op == hal::MemOp::kStore,
                     "mp.ring.word");
      return word;
    }

    const std::size_t capacity;
    const std::size_t mask;
    const std::size_t word_mask;
    const std::size_t line_shift;
    std::unique_ptr<Line[]> lines;

    // Shared indices (each written by exactly one side).
    hal::Atomic<std::uint64_t> head{0};  // written by the receiver
    hal::Atomic<std::uint64_t> tail{0};  // written by the sender

    // Sender-private state (plain memory: single owner).
    alignas(kCacheLineSize) std::uint64_t tail_local = 0;
    std::uint64_t head_cache = 0;

    // Receiver-private state.
    alignas(kCacheLineSize) std::uint64_t head_local = 0;
    std::uint64_t tail_cache = 0;
  };

  // Rings smaller than a line use a single block with capacity words.
  static constexpr std::size_t WordsPerLine(std::size_t capacity) {
    return capacity < kMsgsPerLine ? capacity : kMsgsPerLine;
  }

  static constexpr std::size_t Log2(std::size_t v) {
    std::size_t s = 0;
    while ((std::size_t{1} << s) < v) ++s;
    return s;
  }

  Ring& RingOf(int sender, int receiver) {
    ORTHRUS_DCHECK(sender >= 0 && sender < senders_);
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers_);
    return *rings_[static_cast<std::size_t>(sender) * receivers_ + receiver];
  }

  int senders_ = 0;
  int receivers_ = 0;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_QUEUE_MESH_H_
