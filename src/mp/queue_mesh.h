// QueueMesh: the full (sender x receiver) matrix of SPSC queues that wires
// a set of message-passing threads together (Section 3.1). ORTHRUS needs
// three of these — exec->CC (acquire/release), CC->CC (forwarding), and
// CC->exec (grant/ack) — and before this abstraction each engine wired the
// matrices by hand. The mesh owns the queues, routes (sender, receiver)
// pairs, and provides the two operations the hot path is built from:
//
//  * Send: blocking enqueue with a wedge diagnostic. Queue capacities are
//    provable bounds on outstanding messages per pair, so a full queue that
//    stays full is a protocol bug, not backpressure.
//  * Drain: batched, bounded delivery of what is addressed to one
//    receiver. Each call pops at most one PopBatch (up to a cache line) per
//    sender, so a burst from one sender costs one index publication and
//    ~one payload line transfer per kMsgsPerLine messages instead of one
//    per message, and a sender that keeps publishing cannot hold the
//    receiver on its queue while the others wait. Callers that need the
//    queues empty loop until Drain returns 0. `max_batch = 1` degrades to
//    per-message delivery — the ablation baseline for measuring exactly
//    that difference.
#ifndef ORTHRUS_MP_QUEUE_MESH_H_
#define ORTHRUS_MP_QUEUE_MESH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/spsc_queue.h"

namespace orthrus::mp {
namespace detail {

// Integer EWMA of per-quantum burst depths, used to size adaptive drain
// batches. Asymmetric rounding: estimates climb (ceil) faster than they
// decay (floor), so a workload returning to deep bursts recovers full-line
// batches in a few quanta while shallow phases still pull the batch down.
// Deterministic — pure integer state fed only by observed counts.
class BurstEstimator {
 public:
  // Feed the number of messages observed during one scheduling quantum
  // (callers skip empty quanta).
  void Observe(std::size_t burst_depth) {
    ORTHRUS_DCHECK(burst_depth >= 1);
    if (est_ == 0) {
      est_ = burst_depth;
    } else if (burst_depth > est_) {
      est_ = (3 * est_ + burst_depth + 3) / 4;  // ceil: climb fast
    } else {
      est_ = (3 * est_ + burst_depth) / 4;  // floor: decay gradually
    }
    if (est_ < 1) est_ = 1;
  }

  // Threshold in [1, cap]; before the first observation the full line
  // (`cap`) is used, i.e. exactly the non-adaptive behaviour.
  std::size_t Threshold(std::size_t cap) const {
    if (est_ == 0 || est_ >= cap) return cap;
    return est_;
  }

  std::size_t estimate() const { return est_; }

 private:
  std::size_t est_ = 0;
};

// Receive-side batch policy: a BurstEstimator paired with its opt-in
// flag and fallback, so every consumer sizing its drains adaptively
// applies the same contract — threshold from the measured burst depth
// when adaptive (the fallback until the first observation), and only
// non-empty drains feed the estimate.
class DrainBatchPolicy {
 public:
  std::size_t Batch(bool adaptive, std::size_t fallback) const {
    return adaptive ? est_.Threshold(fallback) : fallback;
  }
  void Observe(bool adaptive, std::size_t delivered) {
    if (adaptive && delivered != 0) est_.Observe(delivered);
  }
  const BurstEstimator& estimator() const { return est_; }

 private:
  BurstEstimator est_;
};

}  // namespace detail

// Order in which Drain visits the queues addressed to a receiver.
enum class DrainOrder {
  // Fixed sender order 0..N-1. The default: zero bookkeeping, and the
  // bit-stable event order the engine equivalence digests are pinned to.
  kRoundRobin,
  // Snapshot consumer-visible depths, then serve the deepest queue first
  // (ties broken by sender id, so the order stays deterministic). Under
  // bursty or skewed fan-in the deepest queue bounds the burst's drain
  // latency and marks the sender closest to blocking on a full queue, so
  // serving it first cuts tail latency and Send backpressure. Costs one
  // tail-index load per sender up front. Senders whose queues were empty
  // at snapshot time are still visited, last and in ascending id order,
  // so one Drain call never delivers less than the round-robin path.
  kDeepestFirst,
  // Measured-imbalance trigger: snapshot depths as kDeepestFirst does,
  // but pay the sort and the reordering only when the snapshot is
  // actually skewed — at least two non-empty senders, a burst deeper
  // than one message, and max depth >= kImbalanceRatio * the mean depth
  // over non-empty senders. Balanced and sparse snapshots are served in
  // plain sender order.
  // This replaces a static "always deepest-first" policy with one driven
  // by what the receiver observes, per drain, at no extra modeled cost —
  // the depth snapshot was already paid for.
  kAdaptive,
};

template <typename T>
class QueueMesh {
 public:
  static constexpr std::size_t kDefaultBatch = SpscQueue<T>::kMsgsPerLine;

  // kAdaptive switches to deepest-first when the snapshot's max depth is
  // at least this multiple of the mean depth over non-empty senders. 2 is
  // deliberately low-drama: a single dominant burst trips it, steady
  // balanced traffic never does.
  static constexpr std::size_t kImbalanceRatio = 2;

  QueueMesh() = default;

  QueueMesh(int senders, int receivers, std::size_t capacity) {
    Reset(senders, receivers, capacity);
  }

  QueueMesh(const QueueMesh&) = delete;
  QueueMesh& operator=(const QueueMesh&) = delete;

  // NUMA placement for one receiver's column of queues (see SpscQueue).
  struct ReceiverPlacement {
    hal::SlabArena* arena = nullptr;
    int home_socket = -1;
  };

  // (Re)builds the matrix. All queues share one capacity: the caller's
  // provable per-pair bound on outstanding messages. `placement`, when
  // non-null, has one entry per receiver and places each receiver's queues
  // on its node.
  void Reset(int senders, int receivers, std::size_t capacity,
             const std::vector<ReceiverPlacement>* placement = nullptr) {
    ORTHRUS_CHECK(senders >= 1 && receivers >= 1);
    ORTHRUS_CHECK(placement == nullptr ||
                  placement->size() == static_cast<std::size_t>(receivers));
    senders_ = senders;
    receivers_ = receivers;
    queues_.clear();
    queues_.reserve(static_cast<std::size_t>(senders) * receivers);
    for (int i = 0; i < senders * receivers; ++i) {
      const ReceiverPlacement p = placement != nullptr
                                      ? (*placement)[i % receivers]
                                      : ReceiverPlacement{};
      queues_.push_back(  // lint:allow-alloc setup
          std::make_unique<SpscQueue<T>>(capacity, p.arena, p.home_socket));
    }
    // Per-receiver depth scratch, pre-sized so the adaptive drain never
    // allocates on the hot path. Each receiver thread touches only its own
    // cache-line-aligned entry.
    depth_scratch_.assign(static_cast<std::size_t>(receivers),
                          ReceiverScratch{});
    for (ReceiverScratch& s : depth_scratch_) {
      s.depths.reserve(static_cast<std::size_t>(senders));
    }
  }

  int senders() const { return senders_; }
  int receivers() const { return receivers_; }

  SpscQueue<T>& at(int sender, int receiver) {
    ORTHRUS_DCHECK(sender >= 0 && sender < senders_);
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers_);
    return *queues_[static_cast<std::size_t>(sender) * receivers_ + receiver];
  }

  // Blocking send on the (sender, receiver) pair's queue. Spins (politely)
  // while full; CHECK-fails if the queue stays full long enough that the
  // capacity bound must have been violated.
  void Send(int sender, int receiver, T value) {
    SpscQueue<T>& q = at(sender, receiver);
    detail::WedgeSpin spin;
    while (!q.TryEnqueue(value)) spin.Pause();
  }

  // Delivers what is addressed to `receiver`, invoking fn(message) on each
  // message in per-sender FIFO order: one PopBatch of up to `max_batch`
  // (clamped to [1, one payload line]) per sender per call. Every sender is
  // visited once regardless of `order`, so a single call always delivers
  // the same multiset the round-robin path would. Callers loop until Drain
  // returns 0, so a zero batch must clamp up rather than silently deliver
  // nothing forever. Returns messages delivered. `order` picks the sender
  // visit order; see DrainOrder.
  template <typename Fn>
  std::size_t Drain(int receiver, Fn&& fn,
                    std::size_t max_batch = kDefaultBatch,
                    DrainOrder order = DrainOrder::kRoundRobin) {
    ORTHRUS_DCHECK(max_batch >= 1);
    std::size_t batch = max_batch < kDefaultBatch ? max_batch : kDefaultBatch;
    if (batch == 0) batch = 1;
    T buf[kDefaultBatch];
    std::size_t delivered = 0;
    // Pops one line from one sender's queue, shared by both visit orders.
    // The bound is the fairness contract: a sender that publishes message
    // by message, even from inside fn, cannot keep the receiver on its
    // queue past one line.
    const auto drain_queue = [&](SpscQueue<T>& q) {
      const std::size_t n = q.PopBatch(buf, batch);
      for (std::size_t i = 0; i < n; ++i) fn(buf[i]);
      delivered += n;
    };
    if (order != DrainOrder::kRoundRobin && senders_ > 1) {
      ReceiverScratch& scratch = depth_scratch_[receiver];
      std::vector<DepthEntry>& depths = scratch.depths;
      depths.clear();
      std::size_t max_depth = 0;
      std::size_t total = 0;
      int nonzero = 0;
      for (int s = 0; s < senders_; ++s) {
        const std::size_t d = at(s, receiver).SizeConsumer();
        // Empty-at-snapshot senders stay in the list: the comparator sorts
        // them last (ascending id), so messages landing mid-drain are
        // still picked up by the final sweep.
        depths.push_back({d, s});
        total += d;
        if (d != 0) nonzero++;
        if (d > max_depth) max_depth = d;
      }
      // Reordering can only help when there are at least two competing
      // non-empty senders and an actual burst (depth > 1): a sparse
      // snapshot — e.g. one lone message among many empty queues, the
      // steady state of a lightly loaded receiver — gains nothing from a
      // sort, so it must not pay for one. The mean is taken over the
      // non-empty senders for the same reason: in an engine-shaped mesh
      // most senders are idle at any instant, and counting the empties
      // would drag the mean toward zero and classify nearly-balanced
      // active traffic as skewed.
      const bool deepest =
          order == DrainOrder::kDeepestFirst ||
          (nonzero > 1 && max_depth > 1 &&
           max_depth * static_cast<std::size_t>(nonzero) >=
               kImbalanceRatio * total);
      if (deepest) std::sort(depths.begin(), depths.end());
      scratch.last_deepest = deepest;
      for (const DepthEntry& e : depths) {
        drain_queue(at(e.sender, receiver));
      }
      return delivered;
    }
    for (int s = 0; s < senders_; ++s) {
      drain_queue(at(s, receiver));
    }
    return delivered;
  }

  // Whether the receiver's most recent snapshot-based Drain (kDeepestFirst
  // or kAdaptive) actually reordered senders. Observability for tests and
  // benches; meaningless after a kRoundRobin drain.
  bool LastDrainWasDeepest(int receiver) const {
    return depth_scratch_[static_cast<std::size_t>(receiver)].last_deepest;
  }

  // Unmodeled aggregate occupancy, for teardown assertions.
  std::size_t SizeRawTotal() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q->SizeRaw();
    return total;
  }

 private:
  // Deepest first, ties by sender id: a total order, so the adaptive drain
  // stays deterministic.
  struct DepthEntry {
    std::size_t depth;
    int sender;
    bool operator<(const DepthEntry& o) const {
      if (depth != o.depth) return depth > o.depth;
      return sender < o.sender;
    }
  };

  // Line-aligned so adjacent receivers' vector headers never share a cache
  // line (each receiver mutates its header on every adaptive drain).
  struct alignas(kCacheLineSize) ReceiverScratch {
    std::vector<DepthEntry> depths;
    bool last_deepest = false;
  };

  int senders_ = 0;
  int receivers_ = 0;
  std::vector<std::unique_ptr<SpscQueue<T>>> queues_;
  std::vector<ReceiverScratch> depth_scratch_;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_QUEUE_MESH_H_
