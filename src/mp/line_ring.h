// Line-packed ring storage for mp::SpscQueue.
//
// Messages are word-sized, so a cache line carries kMsgsPerLine of them.
// Instead of dedicating one modeled coherence line per slot, payload words
// are packed contiguously into line-sized blocks: a burst of messages then
// costs one line transfer per kMsgsPerLine messages rather than one per
// message. Payload accesses are relaxed std::atomics — the queue's
// release-store / acquire-load of its shared index orders them (Lamport),
// and the explicit Touch charges the modeled line cost — exactly what
// hal::Atomic does, but at one line per kMsgsPerLine messages instead of
// one line per message.
//
// LineRing is storage only: it owns no indices and enforces no protocol.
// SpscQueue layers its single-writer index discipline over the blocks.
#ifndef ORTHRUS_MP_LINE_RING_H_
#define ORTHRUS_MP_LINE_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/macros.h"
#include "hal/hal.h"

namespace orthrus::mp::detail {

template <typename T>
class LineRing {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8 &&
                    IsPowerOfTwo(sizeof(T)),
                "queue payloads are word-sized messages");

 public:
  // Messages sharing one (modeled) cache line of payload.
  static constexpr std::size_t kMsgsPerLine = kCacheLineSize / sizeof(T);

  // Capacity must be a power of two (index masking).
  explicit LineRing(std::size_t capacity)
      : capacity_(capacity),
        mask_(capacity - 1),
        word_mask_(WordsPerLine(capacity) - 1),
        line_shift_(Log2(WordsPerLine(capacity))) {
    ORTHRUS_CHECK(IsPowerOfTwo(capacity));
    const std::size_t n = capacity / WordsPerLine(capacity);
    lines_ = std::make_unique<Line[]>(n);  // lint:allow-alloc setup
    for (std::size_t i = 0; i < n; ++i) {
      // Payload touches are coherence charges, not synchronization: the
      // words are relaxed, ordered only by the owning queue's index
      // atomics. The race detector checks them as plain data instead
      // (RaceCheck below) — see LineMeta::sync_var.
      lines_[i].meta.sync_var = false;
    }
  }

  LineRing(const LineRing&) = delete;
  LineRing& operator=(const LineRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  void Store(std::uint64_t idx, T value) {
    const std::size_t pos = static_cast<std::size_t>(idx) & mask_;
    Line& line = lines_[pos >> line_shift_];
    TouchLine(&line.meta, hal::MemOp::kStore);
    hal::RaceCheck(&line.words[pos & word_mask_], sizeof(T), /*is_write=*/true,
                   "mp.ring.word");
    line.words[pos & word_mask_].store(value, std::memory_order_relaxed);
  }

  T Load(std::uint64_t idx) {
    const std::size_t pos = static_cast<std::size_t>(idx) & mask_;
    Line& line = lines_[pos >> line_shift_];
    TouchLine(&line.meta, hal::MemOp::kLoad);
    hal::RaceCheck(&line.words[pos & word_mask_], sizeof(T),
                   /*is_write=*/false, "mp.ring.word");
    return line.words[pos & word_mask_].load(std::memory_order_relaxed);
  }

 private:
  // A line-sized block of payload words plus the simulator's coherence
  // metadata for it.
  struct alignas(kCacheLineSize) Line {
    // Raw std::atomic is deliberate here: the line is modeled explicitly
    // via TouchLine against `meta`, amortizing one hal::Atomic-equivalent
    // charge over kMsgsPerLine words (the whole point of line packing).
    std::atomic<T> words[kMsgsPerLine];  // lint:allow-raw-atomic
    hal::LineMeta meta;
  };

  // Rings smaller than a line still work: they use a single block with
  // capacity words. Maps 0 to 1 so that an illegal capacity reaches the
  // constructor's power-of-two CHECK instead of dividing by zero in the
  // member initializers.
  static constexpr std::size_t WordsPerLine(std::size_t capacity) {
    if (capacity == 0) return 1;
    return capacity < kMsgsPerLine ? capacity : kMsgsPerLine;
  }

  static constexpr std::size_t Log2(std::size_t v) {
    std::size_t s = 0;
    while ((std::size_t{1} << s) < v) ++s;
    return s;
  }

  static void TouchLine(hal::LineMeta* meta, hal::MemOp op) {
    hal::CoreContext* cc = hal::CurrentCore();
    if (cc != nullptr && cc->simulated) cc->platform->OnAtomicAccess(meta, op);
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  const std::size_t word_mask_;
  const std::size_t line_shift_;
  std::unique_ptr<Line[]> lines_;
};

// Polite spin for blocking sends. Queue capacities are provable bounds on
// outstanding messages per pair, so a full queue that stays full is a
// protocol bug, not backpressure: the spin CHECK-fails once the wait has
// outlived any legal protocol state. QueueMesh::Send spins on it.
//
// The tight bound is sound only under the simulator, where fibers are
// never preempted. On native hardware the OS can park the consumer across
// many scheduling quanta, keeping the queue full, so the native bound is
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

}  // namespace orthrus::mp::detail

#endif  // ORTHRUS_MP_LINE_RING_H_
