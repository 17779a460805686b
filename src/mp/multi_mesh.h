// MultiMesh: the dynamically-sized counterpart of QueueMesh. Instead of a
// full (sender x receiver) matrix of SPSC queues — which bakes the sender
// population into the mesh at construction time — each receiver owns one
// multi-producer queue (mp::MpscQueue) that any thread may send into, so a
// new sender needs no mesh rebuild and no sender id. The WAL's producer ->
// logger fan-in uses it.
//
// The trade, priced by the simulator's cost model: every Send pays a CAS
// on the receiver's shared reservation index, the synchronization the
// per-pair SPSC design exists to avoid, and fan-in FIFO is global arrival
// order rather than per-sender round-robin (one sender's messages still
// arrive in its send order — a single producer's reservations are
// ordered). Drain keeps the batched shape of QueueMesh::Drain: up to one
// payload line of messages per head publication.
//
// Sender lifecycle: senders are anonymous to the queues, but an owner
// needs to reason about the population ("have all current senders
// retired?", teardown assertions), so the mesh keeps an active-sender
// count behind RegisterSender/RetireSender. The retire contract is the
// drain-to-empty protocol: before calling RetireSender a sender must have
// flushed every staged line it owns (MultiSendBuffer::Pending() == 0) and
// have no outstanding request that could generate a reply to it.
#ifndef ORTHRUS_MP_MULTI_MESH_H_
#define ORTHRUS_MP_MULTI_MESH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/mpsc_queue.h"

namespace orthrus::mp {

template <typename T>
class MultiMesh {
 public:
  static constexpr std::size_t kDefaultBatch = MpscQueue<T>::kMsgsPerLine;

  MultiMesh() = default;

  MultiMesh(int receivers, std::size_t capacity) { Reset(receivers, capacity); }

  MultiMesh(const MultiMesh&) = delete;
  MultiMesh& operator=(const MultiMesh&) = delete;

  // (Re)builds the per-receiver queues. `capacity` is the caller's provable
  // bound on outstanding messages addressed to one receiver, across all
  // senders (they share its ring).
  void Reset(int receivers, std::size_t capacity) {
    ORTHRUS_CHECK(receivers >= 1);
    active_senders_.RawStore(0);
    registrations_total_.RawStore(0);
    queues_.clear();
    queues_.reserve(static_cast<std::size_t>(receivers));
    for (int i = 0; i < receivers; ++i) {
      // lint:allow-alloc setup
      queues_.push_back(std::make_unique<MpscQueue<T>>(capacity));
    }
  }

  int receivers() const { return static_cast<int>(queues_.size()); }

  MpscQueue<T>& at(int receiver) {
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers());
    return *queues_[static_cast<std::size_t>(receiver)];
  }

  // Blocking send from any thread. Spins (politely) while full;
  // CHECK-fails if the queue stays full long enough that the capacity
  // bound must have been violated. One sender's messages arrive in its
  // send order.
  void Send(int receiver, T value) {
    MpscQueue<T>& q = at(receiver);
    detail::WedgeSpin spin;
    while (!q.TryEnqueue(value)) spin.Pause();
  }

  // Delivers what is addressed to the receiver, invoking fn(message) on
  // each message in arrival order: one PopBatch of up to one payload line
  // per call, the same per-sender bound as QueueMesh::Drain. Returns
  // messages delivered; callers that need the ring empty loop until it
  // returns 0.
  template <typename Fn>
  std::size_t Drain(int receiver, Fn&& fn) {
    T buf[kDefaultBatch];
    const std::size_t n = at(receiver).PopBatch(buf, kDefaultBatch);
    for (std::size_t i = 0; i < n; ++i) fn(buf[i]);
    return n;
  }

  // --- sender lifecycle -------------------------------------------------
  //
  // A thread that will send into the mesh registers first; when it exits
  // it retires. Retiring requires the drain-to-empty protocol: the caller
  // must have flushed all staged lines (its MultiSendBuffer is empty)
  // before the RetireSender call, so a retired sender can never strand
  // messages invisible to receivers.

  // Joins the active sender population. Returns the population size
  // including this sender.
  int RegisterSender() {
    registrations_total_.fetch_add(1);
    return static_cast<int>(active_senders_.fetch_add(1)) + 1;
  }

  // Leaves the active sender population. Everything this sender staged
  // must already be flushed into the queues.
  void RetireSender() {
    const std::uint64_t prev =
        active_senders_.fetch_add(static_cast<std::uint64_t>(-1));
    ORTHRUS_CHECK_MSG(prev > 0, "RetireSender without a matching register");
  }

  // Unmodeled views for teardown assertions and tests.
  int ActiveSendersRaw() const {
    return static_cast<int>(active_senders_.RawLoad());
  }
  std::uint64_t RegistrationsTotalRaw() const {
    return registrations_total_.RawLoad();
  }

  // Unmodeled aggregate occupancy, for teardown assertions.
  std::size_t SizeRawTotal() const {
    std::size_t total = 0;
    for (const auto& q : queues_) total += q->SizeRaw();
    return total;
  }

 private:
  std::vector<std::unique_ptr<MpscQueue<T>>> queues_;
  hal::Atomic<std::uint64_t> active_senders_{0};
  hal::Atomic<std::uint64_t> registrations_total_{0};
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_MULTI_MESH_H_
