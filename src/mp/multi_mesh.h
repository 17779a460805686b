// MultiMesh: the dynamically-sized counterpart of QueueMesh. Instead of a
// full (sender x receiver) matrix of SPSC queues — which bakes the sender
// population into the mesh at construction time — each receiver owns one
// multi-producer queue (mp::MpscQueue) that any thread may send into. That
// is the prerequisite for dynamic execution-thread counts: spinning up a
// new sender needs no mesh rebuild and no sender id registration.
//
// The trade, priced by the simulator's cost model: every Send pays a CAS
// on the receiver's shared reservation index, the synchronization the
// per-pair SPSC design exists to avoid, and fan-in FIFO is global arrival
// order rather than per-sender round-robin (one sender's messages still
// arrive in its send order — a single producer's reservations are
// ordered). Drain keeps the batched shape of QueueMesh::Drain: up to one
// payload line of messages per head publication.
//
// Sharding: with one ring per receiver, every producer contends on the
// same reservation CAS, publishes its tail through one global
// reservation-order chain, and interleaves its payload words into lines
// other producers are writing — at tens of senders the serialization
// chain, not the queue work, dominates. A mesh built with `shards` > 1
// gives each receiver that many independent rings; senders hash (shard
// hint modulo shards) onto one, cutting every contended structure by the
// shard factor, and receivers drain shards in fixed order. Per-SENDER
// FIFO still holds (a sender's messages stay in one shard); global
// arrival order across shards does not, which callers already could not
// assume across senders. A sender that retires and later re-registers may
// land on a different shard, so cross-registration FIFO requires the
// retire protocol below (drain-to-empty makes the point moot: nothing of
// the sender's outlives its registration).
//
// Sender lifecycle: senders are anonymous to the queues, but an elastic
// engine needs to reason about the population ("have all current senders
// retired?", teardown assertions), so the mesh keeps an active-sender
// count behind RegisterSender/RetireSender. The retire contract is the
// drain-to-empty epoch protocol: before calling RetireSender a sender
// must have flushed every staged line it owns (MultiSendBuffer::Pending()
// == 0) and have no outstanding request that could generate a reply to
// it. Registration is cheap (one modeled RMW), so a parked sender
// re-registers on resume rather than holding its slot while idle.
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

  // Ring-count ceiling in adaptive mode (shards = 0): the measured knee —
  // contention falls off fastest up to 8 rings, and rings past the sender
  // population only add drain polls, which is exactly what the adaptive
  // policy exists to avoid.
  static constexpr int kMaxAutoShards = 8;

  // NUMA placement for one receiver's rings: the arena backing the payload
  // blocks and the modeled socket they live on (see MpscQueue). Optional.
  struct ReceiverPlacement {
    hal::SlabArena* arena = nullptr;
    int home_socket = -1;
  };

  MultiMesh() = default;

  MultiMesh(int receivers, std::size_t capacity, int shards = 1) {
    Reset(receivers, capacity, shards);
  }

  MultiMesh(const MultiMesh&) = delete;
  MultiMesh& operator=(const MultiMesh&) = delete;

  // (Re)builds the per-receiver queues. `capacity` is the caller's provable
  // bound on outstanding messages addressed to one receiver *per shard* —
  // across the senders that hash onto that shard, since they share its
  // ring. `shards` rings per receiver (see the sharding note above).
  //
  // `shards == 0` selects *adaptive* sharding: kMaxAutoShards rings are
  // allocated, but the routing modulus follows the registered-sender
  // population — RegisterSender raises it toward min(kMaxAutoShards,
  // population), RetireSender lowers it for future registrations. A
  // sender resolves its ring once per registration (RingForHint), so its
  // own messages stay FIFO; receivers drain up to the high-water ring
  // count, which only grows while the mesh is live — a ring that ever
  // carried a sender may still hold undrained messages. Note the capacity
  // bound: with an adaptive modulus any ring may in the worst case serve
  // the whole population, so size `capacity` for all senders on one ring.
  // `placement`, when non-null, must have one entry per receiver and NUMA-
  // places each receiver's rings.
  void Reset(int receivers, std::size_t capacity, int shards = 1,
             const std::vector<ReceiverPlacement>* placement = nullptr) {
    ORTHRUS_CHECK(receivers >= 1);
    ORTHRUS_CHECK(shards >= 0);
    ORTHRUS_CHECK(placement == nullptr ||
                  placement->size() == static_cast<std::size_t>(receivers));
    active_senders_.RawStore(0);
    registrations_total_.RawStore(0);
    adaptive_ = shards == 0;
    shards_ = adaptive_ ? kMaxAutoShards : shards;
    route_shards_.RawStore(adaptive_ ? 1 : static_cast<std::uint64_t>(shards_));
    drain_shards_.RawStore(adaptive_ ? 1 : static_cast<std::uint64_t>(shards_));
    queues_.clear();
    queues_.reserve(static_cast<std::size_t>(receivers) * shards_);
    for (int i = 0; i < receivers * shards_; ++i) {
      const ReceiverPlacement p =
          placement != nullptr ? (*placement)[i / shards_]
                               : ReceiverPlacement{};
      queues_.push_back(std::make_unique<MpscQueue<T>>(  // lint:allow-alloc setup
          capacity, p.arena, p.home_socket));
    }
  }

  int receivers() const {
    return static_cast<int>(queues_.size()) / shards_;
  }
  int shards() const { return shards_; }
  bool adaptive() const { return adaptive_; }

  // Current routing modulus / drain high-water (tests, observability).
  int RouteShardsRaw() const {
    return static_cast<int>(route_shards_.RawLoad());
  }
  int DrainShardsRaw() const {
    return static_cast<int>(drain_shards_.RawLoad());
  }

  MpscQueue<T>& at(int receiver, int shard = 0) {
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers());
    ORTHRUS_DCHECK(shard >= 0 && shard < shards_);
    return *queues_[static_cast<std::size_t>(receiver) * shards_ + shard];
  }

  // Resolves a stable shard hint to a ring under the *current* routing
  // modulus (one modeled load). A sender must resolve once per
  // registration and keep the result until it retires, so its own
  // messages stay FIFO across re-sharding.
  int RingForHint(int shard_hint) {
    return shard_hint % static_cast<int>(route_shards_.load());
  }

  // Blocking send from any thread. Spins (politely) while full;
  // CHECK-fails if the queue stays full long enough that the capacity
  // bound must have been violated. `shard_hint` is reduced by the routing
  // modulus at call time; on a fixed-shard mesh one hint therefore pins
  // one ring and the sender's stream stays FIFO. On an *adaptive* mesh
  // the modulus can move between two Sends (a concurrent register or
  // retire), splitting a raw sender's stream across rings — so raw Send
  // there is for tests and single-shot messages only; a FIFO sender
  // resolves its ring exactly once per registration (RingForHint) and
  // sends with SendOnRing, or stages through MultiSendBuffer, which does
  // the same (Rebind).
  void Send(int receiver, T value, int shard_hint = 0) {
    SendOnRing(receiver,
               adaptive_ ? RingForHint(shard_hint) : shard_hint % shards_,
               value);
  }

  // Blocking send onto `ring`, a ring the sender resolved with RingForHint
  // when it registered.
  void SendOnRing(int receiver, int ring, T value) {
    MpscQueue<T>& q = at(receiver, ring);
    detail::WedgeSpin spin;
    while (!q.TryEnqueue(value)) spin.Pause();
  }

  // Delivers what is addressed to the receiver (all live shards, fixed
  // shard order), invoking fn(message) on each message in per-shard
  // arrival order: one PopBatch of up to one payload line per shard per
  // call, the same per-sender bound as QueueMesh::Drain. Returns messages
  // delivered; callers that need the rings empty loop until it returns 0.
  template <typename Fn>
  std::size_t Drain(int receiver, Fn&& fn) {
    const int live =
        adaptive_ ? static_cast<int>(drain_shards_.load()) : shards_;
    T buf[kDefaultBatch];
    std::size_t delivered = 0;
    for (int s = 0; s < live; ++s) {
      const std::size_t n = at(receiver, s).PopBatch(buf, kDefaultBatch);
      for (std::size_t i = 0; i < n; ++i) fn(buf[i]);
      delivered += n;
    }
    return delivered;
  }

  // --- sender lifecycle -------------------------------------------------
  //
  // A thread that will send into the mesh registers first; when it parks
  // or exits it retires. Retiring requires the drain-to-empty protocol:
  // the caller must have flushed all staged lines (its MultiSendBuffer is
  // empty) before the RetireSender call, so a retired sender can never
  // strand messages invisible to receivers.

  // Joins the active sender population. Returns the population size
  // including this sender. In adaptive mode this is also the re-shard
  // point: the routing modulus tracks the population.
  int RegisterSender() {
    registrations_total_.fetch_add(1);
    const int pop = static_cast<int>(active_senders_.fetch_add(1)) + 1;
    if (adaptive_) Reshard(pop);
    return pop;
  }

  // Leaves the active sender population. Everything this sender staged
  // must already be flushed into the queues.
  void RetireSender() {
    const std::uint64_t prev =
        active_senders_.fetch_add(static_cast<std::uint64_t>(-1));
    ORTHRUS_CHECK_MSG(prev > 0, "RetireSender without a matching register");
    if (adaptive_) Reshard(static_cast<int>(prev) - 1);
  }

  // Modeled view of the current population (any thread).
  int ActiveSenders() { return static_cast<int>(active_senders_.load()); }

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
  // Adaptive re-shard toward min(kMaxAutoShards, population). Invariant:
  // the routing modulus never exceeds the drain high-water — a route store
  // of v is preceded (same thread) by a raise of the high-water to >= v,
  // and the high-water only grows — so every routable ring is drained.
  void Reshard(int population) {
    const std::uint64_t desired = static_cast<std::uint64_t>(
        population < 1 ? 1
                       : (population > kMaxAutoShards ? kMaxAutoShards
                                                      : population));
    std::uint64_t hw = drain_shards_.load();
    while (hw < desired && !drain_shards_.compare_exchange(hw, desired)) {
    }
    route_shards_.store(desired);
  }

  int shards_ = 1;
  bool adaptive_ = false;
  std::vector<std::unique_ptr<MpscQueue<T>>> queues_;
  hal::Atomic<std::uint64_t> active_senders_{0};
  hal::Atomic<std::uint64_t> registrations_total_{0};
  hal::Atomic<std::uint64_t> route_shards_{1};
  hal::Atomic<std::uint64_t> drain_shards_{1};
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_MULTI_MESH_H_
