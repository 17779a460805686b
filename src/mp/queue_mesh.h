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
//    per-message delivery, which micro_components' BM_QueueMeshDrain uses
//    to price exactly that difference.
#ifndef ORTHRUS_MP_QUEUE_MESH_H_
#define ORTHRUS_MP_QUEUE_MESH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/spsc_queue.h"

namespace orthrus::mp {

template <typename T>
class QueueMesh {
 public:
  static constexpr std::size_t kDefaultBatch = SpscQueue<T>::kMsgsPerLine;

  QueueMesh() = default;

  QueueMesh(int senders, int receivers, std::size_t capacity) {
    Reset(senders, receivers, capacity);
  }

  QueueMesh(const QueueMesh&) = delete;
  QueueMesh& operator=(const QueueMesh&) = delete;

  // (Re)builds the matrix. All queues share one capacity: the caller's
  // provable per-pair bound on outstanding messages.
  void Reset(int senders, int receivers, std::size_t capacity) {
    ORTHRUS_CHECK(senders >= 1 && receivers >= 1);
    senders_ = senders;
    receivers_ = receivers;
    queues_.clear();
    queues_.reserve(static_cast<std::size_t>(senders) * receivers);
    for (int i = 0; i < senders * receivers; ++i) {
      queues_.push_back(  // lint:allow-alloc setup
          std::make_unique<SpscQueue<T>>(capacity));
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
  // message in per-sender FIFO order: senders visited in fixed order
  // 0..N-1, one PopBatch of up to `max_batch` (clamped to [1, one payload
  // line]) per sender per call. The bound is the fairness contract: a
  // sender that publishes message by message, even from inside fn, cannot
  // keep the receiver on its queue past one line. Callers loop until Drain
  // returns 0, so a zero batch must clamp up rather than silently deliver
  // nothing forever. Returns messages delivered.
  template <typename Fn>
  std::size_t Drain(int receiver, Fn&& fn,
                    std::size_t max_batch = kDefaultBatch) {
    ORTHRUS_DCHECK(max_batch >= 1);
    std::size_t batch = max_batch < kDefaultBatch ? max_batch : kDefaultBatch;
    if (batch == 0) batch = 1;
    T buf[kDefaultBatch];
    std::size_t delivered = 0;
    for (int s = 0; s < senders_; ++s) {
      const std::size_t n = at(s, receiver).PopBatch(buf, batch);
      for (std::size_t i = 0; i < n; ++i) fn(buf[i]);
      delivered += n;
    }
    return delivered;
  }

  // Unmodeled aggregate occupancy, for teardown assertions.
  std::size_t SizeRawTotal() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q->SizeRaw();
    return total;
  }

 private:
  int senders_ = 0;
  int receivers_ = 0;
  std::vector<std::unique_ptr<SpscQueue<T>>> queues_;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_QUEUE_MESH_H_
