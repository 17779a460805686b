// MultiSendBuffer: sender-side staging over a MultiMesh.
//
// A sender calling MultiMesh::Send pays one reservation CAS and one tail
// publication per message. MultiSendBuffer stages outgoing messages in a
// plain-memory array per receiver and flushes them with one
// MpscQueue::PushBatch — one CAS and one tail publication per staged line
// instead of one per message. That amortization is worth its latency only
// where the receiver waits for a batch anyway: the WAL's group commit
// stages redo fragments through it, since nothing is acknowledged before
// the epoch seals. ORTHRUS's lock-path messages are published as they are
// produced instead (a staged grant stalls its transaction).
//
// The staging arrays are sender-private plain memory, so staging a message
// costs no modeled coherence traffic at all; the shared queue is touched
// only at flush time. A receiver's stage auto-flushes when it fills
// (default: one payload line, the point past which a bigger batch buys no
// further line amortization); the owner calls FlushAll() at the end of
// each scheduling quantum so staged messages never outlive the sender's
// attention.
//
// Flush is blocking like MultiMesh::Send: queue capacities are provable
// bounds on outstanding messages (staging does not increase them — a
// staged message was "outstanding" the moment it was produced), so a
// partial PushBatch retries until the receiver makes room and a queue that
// stays full is a protocol bug, not backpressure.
//
// Senders are anonymous; a thread owns its buffer, and the MultiMesh retire
// protocol requires Pending() == 0 before the owner retires.
#ifndef ORTHRUS_MP_SEND_BUFFER_H_
#define ORTHRUS_MP_SEND_BUFFER_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/multi_mesh.h"

namespace orthrus::mp {

template <typename T>
class MultiSendBuffer final {
 public:
  static constexpr std::size_t kDefaultStage = MpscQueue<T>::kMsgsPerLine;

  explicit MultiSendBuffer(MultiMesh<T>* mesh,
                           std::size_t stage_capacity = kDefaultStage)
      : mesh_(mesh),
        receivers_(mesh->receivers()),
        stage_(stage_capacity < 1 ? 1 : stage_capacity),
        slots_(static_cast<std::size_t>(receivers_) * stage_),
        counts_(static_cast<std::size_t>(receivers_), 0) {}

  MultiSendBuffer(const MultiSendBuffer&) = delete;
  MultiSendBuffer& operator=(const MultiSendBuffer&) = delete;

  std::size_t stage_capacity() const { return stage_; }

  // Stages `value` for `receiver`; flushes the receiver's stage once full.
  void Send(int receiver, T value) {
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers_);
    const std::size_t r = static_cast<std::size_t>(receiver);
    std::size_t& n = counts_[r];
    slots_[r * stage_ + n] = value;
    messages_++;
    if (++n >= stage_) Flush(receiver);
  }

  // Pushes everything staged for `receiver` into its queue, retrying
  // partial batches until the whole stage is enqueued.
  void Flush(int receiver) {
    std::size_t& n = counts_[static_cast<std::size_t>(receiver)];
    if (n == 0) return;
    const T* buf = &slots_[static_cast<std::size_t>(receiver) * stage_];
    MpscQueue<T>& q = mesh_->at(receiver);
    std::size_t pushed = 0;
    detail::WedgeSpin spin;
    while (pushed < n) {
      const std::size_t k = q.PushBatch(buf + pushed, n - pushed);
      if (k == 0) {
        spin.Pause();
        continue;
      }
      publications_++;
      pushed += k;
    }
    n = 0;
  }

  // Flushes every receiver's stage, in ascending receiver order
  // (deterministic under the simulator). Call at the end of each
  // scheduling quantum.
  void FlushAll() {
    for (int r = 0; r < receivers_; ++r) Flush(r);
  }

  // Messages staged but not yet flushed (all receivers).
  std::size_t Pending() const {
    std::size_t total = 0;
    for (std::size_t n : counts_) total += n;
    return total;
  }

  // Total messages accepted by Send().
  std::uint64_t messages() const { return messages_; }

  // Tail-index publications performed (successful PushBatch calls). The
  // amortization the buffer exists for: messages() / publications() is the
  // average messages per publication, vs. exactly 1 for unbuffered Send.
  std::uint64_t publications() const { return publications_; }

 private:
  MultiMesh<T>* mesh_;
  const int receivers_;
  const std::size_t stage_;
  // Flat [receiver][stage_] staging matrix + per-receiver fill counts.
  // Plain memory: exactly one thread owns a buffer.
  std::vector<T> slots_;
  std::vector<std::size_t> counts_;
  std::uint64_t messages_ = 0;
  std::uint64_t publications_ = 0;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_SEND_BUFFER_H_
