#include "engine/orthrus/orthrus_engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "engine/autotune.h"
#include "engine/orthrus/cc_lock_table.h"
#include "engine/orthrus/stages.h"
#include "hal/hal.h"
#include "hal/slab_arena.h"
#include "hal/topology.h"
#include "lock/space_map.h"
#include "mp/multi_mesh.h"
#include "mp/queue_mesh.h"
#include "txn/ollp.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

using txn::Access;
using txn::LockMode;
using txn::Txn;

static_assert(kMaxStages <= 64, "stage indexes ride in 6 message bits");

// ------------------------------------------------------------- messages

// A message is a pointer to a transaction control block with a small tag in
// the low (alignment) bits.
//
// kRelease additionally carries the index of the stage being released in
// bits [3, 9): with a remappable lock space one CC thread can own several
// of a transaction's stages, so "release my stage" is no longer
// self-describing. TCBs are 512-byte aligned to free those bits.
enum MsgTag : std::uint64_t {
  kAcquire = 0,    // exec->CC or CC->CC: acquire locks for cur_stage
  kRelease = 1,    // exec->CC: release one stage's locks of tcb
  kGrant = 2,      // CC->exec: all stages granted, execute
  kStageDone = 3,  // CC->exec (non-forwarding mode): one stage granted
  kAck = 4,        // CC->exec: release processed
  kTagMask = 7,
};

// TCB alignment: 3 tag bits + 6 stage-index bits (kMaxStages <= 64).
constexpr std::uint64_t kTcbAlign = 512;
constexpr std::uint64_t kStageShift = 3;
constexpr std::uint64_t kStageFieldMask = 63;

struct Tcb;

std::uint64_t Encode(Tcb* tcb, MsgTag tag) {
  const std::uint64_t p = reinterpret_cast<std::uint64_t>(tcb);
  ORTHRUS_DCHECK((p & (kTcbAlign - 1)) == 0);
  return p | tag;
}

// Release message: the stage index travels in the low alignment bits so
// any CC thread holding the message knows which stage's shard it targets.
std::uint64_t EncodeRelease(Tcb* tcb, int stage_idx) {
  ORTHRUS_DCHECK(stage_idx >= 0 &&
                 stage_idx <= static_cast<int>(kStageFieldMask));
  return Encode(tcb, kRelease) |
         (static_cast<std::uint64_t>(stage_idx) << kStageShift);
}

Tcb* DecodeTcb(std::uint64_t w) {
  return reinterpret_cast<Tcb*>(w & ~(kTcbAlign - 1));
}

MsgTag DecodeTag(std::uint64_t w) { return static_cast<MsgTag>(w & kTagMask); }

int DecodeStage(std::uint64_t w) {
  return static_cast<int>((w >> kStageShift) & kStageFieldMask);
}

struct ScLock;

// One lock request. Each transaction's requests live inline in its TCB
// (index = access index), so neither CC mode allocates request nodes.
struct CcRequest {
  Tcb* tcb = nullptr;
  ScLock* sc_lock = nullptr;  // shared-mode owner lock (Section 3.4)
  CcRequest* next = nullptr;
  CcRequest* prev = nullptr;
  // Partitioned mode: the access's (table, key), copied at acquire so a
  // release finds its lock without reading the access array, whose lines
  // the exec thread owns again once the grant returns.
  std::uint64_t key = 0;
  std::uint32_t table = 0;
  LockMode mode = LockMode::kShared;
  bool granted = false;
};

using CcLock = engine::CcLock<CcRequest>;
using CcLockTable = engine::CcLockTable<CcRequest>;

// Transaction control block. Owned by one execution thread's slot; while a
// kAcquire message is in flight the fields below `cur_stage` are logically
// owned by the CC thread holding the message (ownership travels with the
// message, so no field is ever written concurrently). Alignment frees the
// low pointer bits for the tag + stage-index message encoding.
struct alignas(kTcbAlign) Tcb {
  Txn txn;
  int exec_id = -1;
  int slot = -1;
  int n_stages = 0;
  int cur_stage = 0;  // stage being (or about to be) processed
  std::array<Stage, kMaxStages> stages;

  // Exec-side bookkeeping.
  int pending_acks = 0;
  bool replan_pending = false;
  bool counted_commit = false;

  // Shared-CC mode (Section 3.4): index of the next lock to acquire in
  // global key order and the CC thread handling this transaction.
  int next_acq = 0;
  int home_cc = -1;

  // CC-side state, starting on a line of its own so that CC writes never
  // share a cache line with the exec thread's bookkeeping above.
  // `pending` counts the ungranted locks of the stage in progress. The
  // request nodes are one per access; each stage's slice belongs to the
  // CC thread owning that stage's partition (to the acquiring CC thread in
  // shared-CC mode) from acquire until release.
  alignas(kCacheLineSize) std::uint32_t pending = 0;
  std::array<CcRequest, kMaxAccesses> inline_reqs{};
};

// -------------------------------------- shared CC lock table (Section 3.4)

// One latched lock table shared by all CC threads: the paper's alternative
// to partitioning the lock space. A transaction's home CC thread acquires
// its locks one at a time in global key order (deadlock freedom by ordered
// acquisition); when a lock is busy the transaction parks in that lock's
// FIFO queue, and whichever CC thread later grants the lock continues the
// acquisition. Bucket latches are contended only by CC threads.
struct ScLock {
  std::uint32_t table = 0;
  std::uint64_t key = 0;
  CcRequest* head = nullptr;
  CcRequest* tail = nullptr;
  ScLock* next_in_bucket = nullptr;
  std::uint32_t queued_total = 0;
  std::uint32_t queued_x = 0;
};

class SharedCcTable {
 public:
  SharedCcTable(int n_cc, hal::Cycles op_cycles,
                std::size_t n_buckets = 1 << 14,
                std::size_t heads_per_cc = 1 << 18)
      : op_cycles_(op_cycles),
        mask_(NextPowerOfTwo(n_buckets) - 1),
        // lint:allow-alloc setup: built once per run
        buckets_(std::make_unique<Bucket[]>(mask_ + 1)),
        head_pool_(static_cast<std::size_t>(n_cc) * heads_per_cc),
        shard_next_(n_cc),
        shard_end_(n_cc) {
    for (int c = 0; c < n_cc; ++c) {
      shard_next_[c] = c * heads_per_cc;
      shard_end_[c] = (c + 1) * heads_per_cc;
    }
  }

  // Continues tcb's ordered acquisition from tcb->next_acq. Returns true
  // once every lock is granted. Must be called by a CC core.
  bool ContinueAcquire(Tcb* tcb) {
    // Whichever CC thread granted the parked request owns the transaction's
    // acquisition cursor now; the bucket latch hand-off is the sync edge.
    hal::RaceCheck(&tcb->next_acq, sizeof(tcb->next_acq), /*is_write=*/true,
                   "orthrus.tcb.next_acq");
    Txn& t = tcb->txn;
    while (tcb->next_acq < static_cast<int>(t.accesses.size())) {
      const Access& a = t.accesses[tcb->next_acq];
      Bucket* b = &buckets_[Hash(a.table, a.key) & mask_];
      b->latch.Lock();
      hal::ConsumeCycles(op_cycles_);
      ScLock* lock = FindOrCreate(b, a.table, a.key);
      CcRequest* r = &tcb->inline_reqs[tcb->next_acq];
      r->tcb = tcb;
      r->mode = a.mode;
      r->next = nullptr;
      r->prev = lock->tail;
      r->sc_lock = lock;
      const bool grantable = a.mode == LockMode::kExclusive
                                 ? lock->queued_total == 0
                                 : lock->queued_x == 0;
      if (lock->tail != nullptr) {
        lock->tail->next = r;
      } else {
        lock->head = r;
      }
      lock->tail = r;
      lock->queued_total++;
      if (a.mode == LockMode::kExclusive) lock->queued_x++;
      r->granted = grantable;
      b->latch.Unlock();
      // Branch on the latch-protected local, never on r->granted after the
      // unlock: a releaser on another CC thread may grant the parked
      // request in that window, and a stale re-read would have this thread
      // and the granter both continue the same transaction.
      if (!grantable) return false;  // parked; a granter will continue us
      tcb->next_acq++;
    }
    return true;
  }

  // Releases every lock tcb holds (indexes [0, next_acq)), collecting the
  // transactions whose parked request became granted; the caller continues
  // them outside the latches.
  void ReleaseAll(Tcb* tcb, std::vector<Tcb*>* runnable) {
    for (int i = 0; i < tcb->next_acq; ++i) {
      CcRequest* r = &tcb->inline_reqs[i];
      ScLock* lock = r->sc_lock;
      Bucket* b = &buckets_[Hash(lock->table, lock->key) & mask_];
      b->latch.Lock();
      hal::ConsumeCycles(op_cycles_);
      Unlink(lock, r);
      bool x_seen = false;
      for (CcRequest* f = lock->head; f != nullptr; f = f->next) {
        if (!f->granted) {
          const bool grantable = f->mode == LockMode::kExclusive
                                     ? f == lock->head
                                     : !x_seen;
          if (!grantable) break;
          f->granted = true;
          hal::RaceCheck(&f->tcb->next_acq, sizeof(f->tcb->next_acq),
                         /*is_write=*/true, "orthrus.tcb.next_acq");
          f->tcb->next_acq++;  // the lock it was parked on
          runnable->push_back(f->tcb);
        }
        if (f->mode == LockMode::kExclusive) x_seen = true;
      }
      b->latch.Unlock();
    }
  }

 private:
  struct alignas(kCacheLineSize) Bucket {
    hal::SpinLock latch;
    ScLock* chain ORTHRUS_GUARDED_BY(latch) = nullptr;
  };

  static std::size_t Hash(std::uint32_t table, std::uint64_t key) {
    std::uint64_t h = (key ^ (static_cast<std::uint64_t>(table) << 56)) *
                      0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  ScLock* FindOrCreate(Bucket* b, std::uint32_t table, std::uint64_t key)
      ORTHRUS_REQUIRES(b->latch) {
    for (ScLock* l = b->chain; l != nullptr; l = l->next_in_bucket) {
      if (l->key == key && l->table == table) return l;
    }
    const int me = hal::CoreId();
    ORTHRUS_CHECK_MSG(shard_next_[me] < shard_end_[me],
                      "shared-CC lock-head shard exhausted");
    ScLock* l = &head_pool_[shard_next_[me]++];
    l->table = table;
    l->key = key;
    l->head = l->tail = nullptr;
    l->queued_total = 0;
    l->queued_x = 0;
    l->next_in_bucket = b->chain;
    b->chain = l;
    return l;
  }

  static void Unlink(ScLock* lock, CcRequest* r) {
    ORTHRUS_DCHECK(lock->queued_total > 0);
    lock->queued_total--;
    if (r->mode == LockMode::kExclusive) lock->queued_x--;
    if (r->prev != nullptr) {
      r->prev->next = r->next;
    } else {
      lock->head = r->next;
    }
    if (r->next != nullptr) {
      r->next->prev = r->prev;
    } else {
      lock->tail = r->prev;
    }
    r->prev = r->next = nullptr;
  }

  hal::Cycles op_cycles_;
  std::size_t mask_;
  std::unique_ptr<Bucket[]> buckets_;
  std::vector<ScLock> head_pool_;
  std::vector<std::size_t> shard_next_;
  std::vector<std::size_t> shard_end_;
};

// --------------------------------------------------------- shared state

using Mesh = mp::QueueMesh<std::uint64_t>;
using MultiMesh = mp::MultiMesh<std::uint64_t>;

// One lock partition's owner-private state (elastic_cc mode). The shard —
// not the CC thread — owns the lock table and the held-request count, so a
// partition handoff moves all of its lock state with one pointer-ownership
// transfer and the teardown accounting stays exact across any number of
// handoffs.
struct CcShard {
  explicit CcShard(std::size_t max_live) : locks(max_live) {}
  CcLockTable locks;
  std::uint64_t held = 0;  // requests enqueued and not yet released
};

using SpaceMap = lock::SpaceMap<CcShard>;
using Router = lock::LockSpaceRouter<CcShard>;

// State every thread of one run shares. Fields without an initializer are
// copied from the options by OrthrusEngine::Run before any thread starts;
// they carry no defaults of their own, so the options are their one source
// of truth.
struct Shared {
  int n_cc;
  int n_exec;
  bool forwarding;
  bool elastic;
  hal::Cycles cc_op_cycles;

  // Snapshot read path (OrthrusOptions::snapshot_reads): classified
  // read-only transactions execute lock-free against the epoch-versioned
  // slabs, inline on their exec thread — zero CC messages. Writers install
  // post-images under their held locks in Execute. The epoch clock lives
  // on the database (set up by Run); heartbeat slot = exec id.
  bool snapshot_reads;

  // Queue meshes, indexed (sender, receiver).
  Mesh exec_to_cc;  // (exec, cc)  acquire + release (static roles)
  Mesh cc_to_cc;    // (cc, cc)    forward
  Mesh cc_to_exec;  // (cc, exec)  grant / stage-done / ack

  // Elastic mode replaces exec_to_cc with the dynamic-sender MPSC mesh:
  // exec threads come and go (park/resume) without a mesh rebuild. The
  // CC-side meshes stay static — the CC population is fixed, and every
  // cc_to_exec receiver exists for the whole run (a parked exec simply has
  // an empty queue: it drains to empty before retiring).
  MultiMesh exec_to_cc_multi;

  // Elastic-mode doorbell: how many exec threads should be active. Exec
  // thread e runs while e < target; CC thread 0's controller moves it.
  runtime::ParkGate exec_gate;
  hal::Atomic<std::uint64_t> reallocations{0};
  // Exec-thread worker contexts, for the controller's epoch snapshot reads.
  std::vector<runtime::WorkerContext*> exec_ctxs;

  // Elastic CC population (elastic_cc mode): the lock space is n_parts
  // consistent-hash partitions owned through the SpaceMap; CC threads
  // above cc_gate's target hand their partitions off and park. Router
  // slots are worker ids (CC threads first, like everything else).
  bool elastic_cc;
  int n_parts;
  SpaceMap* space = nullptr;
  const lock::HashRing* ring = nullptr;
  runtime::ParkGate cc_gate;
  hal::Atomic<std::uint64_t> cc_reallocations{0};

  hal::Atomic<std::uint64_t> execs_done{0};
  hal::Atomic<std::uint64_t> inflight_global{0};

  // Durability (null = off): each exec thread owns wal producer slot
  // exec_id; logger workers ride above the CC/exec cores.
  wal::GroupCommitLog* wal;

  // Section 3.4 mode: non-null when CC threads share one latched table.
  std::unique_ptr<SharedCcTable> shared_cc;
};

// ------------------------------------------------------------ CC thread

class CcThread {
 public:
  // `controller` (1-D) or `controller2d` (elastic_cc) is non-null only on
  // the CC thread that runs the elastic reallocation epochs (CC 0);
  // `epoch_cycles` is that controller's decision period in cycles.
  CcThread(int cc_id, Shared* shared, WorkerStats* stats,
           std::size_t max_live_locks,
           ElasticController* controller = nullptr,
           ElasticController2D* controller2d = nullptr,
           hal::Cycles epoch_cycles = 0)
      : cc_id_(cc_id),
        shared_(shared),
        stats_(stats),
        // Lock tables live in the SpaceMap's shards under elastic_cc and
        // in SharedCcTable in shared-CC mode; the thread-local table then
        // stays unused (minimal footprint).
        locks_(shared->elastic_cc || shared->shared_cc != nullptr
                   ? 1
                   : max_live_locks),
        controller_(controller),
        controller2d_(controller2d),
        epoch_cycles_(epoch_cycles) {
    if (shared->elastic_cc) {
      // lint:allow-alloc setup
      router_ = std::make_unique<Router>(shared->space, cc_id);
    }
  }

  void Main() {
    // Polling cached-empty queues costs L1 hits; a small cap keeps grant
    // latency low while still bounding event rates when truly idle.
    hal::IdleBackoff idle(128);
    // One clock read per loop iteration: the span since the previous read
    // is locking time when that iteration's drain delivered messages, and
    // waiting time otherwise (empty polls, idle backoff, parking).
    hal::Cycles last = hal::Now();
    const auto account = [&](bool busy) {
      const hal::Cycles now = hal::Now();
      stats_->Add(busy ? TimeCategory::kLocking : TimeCategory::kWaiting,
                  now - last);
      last = now;
    };
    while (true) {
      // Read the termination predicate *before* draining: if it was true
      // before a drain that found nothing, no message can arrive later.
      const bool maybe_done = RunDrained();
      // elastic_cc quantum preamble: refresh the map view and hand off
      // shards the new epoch moved away; read the park barrier before the
      // drain, so an empty drain after a true barrier proves quiescence
      // (the same read-predicate-then-drain shape as maybe_done).
      bool may_park = false;
      if (shared_->elastic_cc) {
        MaybeRemap();
        may_park = ParkBarrierHolds();
      }
      const bool progress = DrainOnce();
      if (controller_ != nullptr || controller2d_ != nullptr) {
        MaybeReallocate();
      }
      if (progress) {
        account(/*busy=*/true);
        idle.Reset();
        continue;
      }
      if (maybe_done) {
        account(/*busy=*/false);
        ORTHRUS_CHECK_MSG(held_ == 0, "CC exiting with locks held");
        ORTHRUS_CHECK_MSG(locks_.used() == 0,
                          "CC exiting with live locks in its table");
        stats_->cc_live_locks_max = locks_.high_water();
        break;
      }
      if (may_park) {
        ParkCc();
        idle.Reset();
      } else {
        idle.Idle();
      }
      account(/*busy=*/false);
    }
  }

 private:
  bool RunDrained() {
    return shared_->execs_done.load() ==
               static_cast<std::uint64_t>(shared_->n_exec) &&
           shared_->inflight_global.load() == 0;
  }

  bool DrainOnce() {
    const auto handle = [this](std::uint64_t w) { Handle(w); };
    // Elastic mode: exec senders live on the dynamic MPSC mesh (fan-in is
    // a set of shared shard queues per CC thread, drained in fixed shard
    // order); static mode keeps the per-pair SPSC matrix.
    std::size_t n = shared_->elastic
                        ? shared_->exec_to_cc_multi.Drain(cc_id_, handle)
                        : shared_->exec_to_cc.Drain(cc_id_, handle);
    // The CC->CC mesh carries forwarding chains — and, under elastic_cc,
    // misrouted messages chasing a shard's current owner, which exist
    // whether or not forwarding is on.
    if (shared_->forwarding || shared_->elastic_cc) {
      n += shared_->cc_to_cc.Drain(cc_id_, handle);
    }
    if (n == 0) return false;
    stats_->cc_batches++;
    stats_->cc_batch_msgs += n;
    return true;
  }

  // --- elastic_cc: epoch handoff, retire, resume -----------------------

  // Quantum-boundary epoch work: refresh the routing view and hand off
  // every shard we own whose owner under the current map is another CC
  // slot. The sweep runs every quantum, NOT just when the epoch moved: a
  // shard can be relinquished *to us* under an older map after we already
  // observed the newest one (the relinquisher lagged), and no further
  // version change would ever re-trigger a change-gated sweep — the shard
  // would strand on us while every message for it self-requeues at the
  // map's owner. The guard scan uses raw loads (eventual visibility is
  // enough, it re-runs every quantum, and the steady-state scan must not
  // bill modeled traffic); a hit is confirmed with an acquire load so the
  // previous owner's shard writes happen-before our release-store to the
  // next owner — without that acquire a plain-read-then-store would break
  // the transfer chain's ordering. We are the only thread that may touch
  // an owned shard, and we hold no reference into it between messages, so
  // the release-store inside Relinquish is the entire transfer.
  void MaybeRemap() {
    router_->Refresh();
    for (int p = 0; p < shared_->n_parts; ++p) {
      const int owner = router_->OwnerOf(p);
      if (owner == cc_id_) continue;
      if (shared_->space->ShardOwnerRaw(p) !=
          static_cast<std::uint64_t>(cc_id_)) {
        continue;
      }
      if (shared_->space->ShardOwner(p) ==
          static_cast<std::uint64_t>(cc_id_)) {
        shared_->space->Relinquish(p, static_cast<std::uint64_t>(owner));
      }
    }
  }

  // The drain-to-empty retire barrier (see lock::SpaceMap): this slot may
  // park only when the controller retired it, every router has observed an
  // epoch at or past our view (so nothing routes here anymore), our own
  // view maps no partition here, and no shard handoff still names us.
  // The own-view check closes the claim window: the gate can drop between
  // our Refresh and this read (a reactivate-then-retire pair of epochs),
  // in which case our table — and every router's table at that same stale
  // version, which the observation barrier would accept — can still route
  // partitions to us even though no shard word names us yet. Refusing to
  // park until a refresh adopts a map that excludes us forces the barrier
  // to be evaluated at (at least) the retirement epoch. Ordering matters:
  // the observation barrier is read before the ownership scan, so a
  // transfer initiated under an older view is either visible to the scan
  // or impossible.
  bool ParkBarrierHolds() {
    if (cc_id_ == 0) return false;  // the controller thread never parks
    if (shared_->cc_gate.Active(cc_id_)) return false;
    if (!shared_->space->AllObservedAtLeast(router_->version())) {
      return false;
    }
    for (int p = 0; p < shared_->n_parts; ++p) {
      if (router_->OwnerOf(p) == cc_id_) return false;
      if (shared_->space->ShardOwner(p) ==
          static_cast<std::uint64_t>(cc_id_)) {
        return false;
      }
    }
    return true;
  }

  void ParkCc() {
    router_->Deactivate();
    // The park predicate also watches the shard owner words: if the
    // target briefly rose and fell again while this thread never got a
    // quantum (possible only under native scheduling), a peer may have
    // relinquished a shard *to* us during the active window. Only the
    // owner may relinquish, so we must wake, hand the shard onward under
    // the current map (MaybeRemap at the next quantum top), and only
    // then re-park — otherwise every message for that shard would chase
    // an owner that never runs. Raw loads: eventual visibility is all
    // the wake-up needs, and the spin must not bill modeled traffic.
    shared_->cc_gate.Park(
        cc_id_, [this] { return RunDrained() || OwnsAnyShardRaw(); });
    // No refresh here: the next quantum's MaybeRemap rebuilds the view
    // (Deactivate zeroed the cached version) and runs the relinquish
    // sweep, which is how a shard handed to us mid-park is passed onward.
  }

  bool OwnsAnyShardRaw() const {
    for (int p = 0; p < shared_->n_parts; ++p) {
      if (shared_->space->ShardOwnerRaw(p) ==
          static_cast<std::uint64_t>(cc_id_)) {
        return true;
      }
    }
    return false;
  }

  // --- elastic reallocation epochs (controller CC thread only) ---------

  // Once per epoch: read the exec threads' published commit counters,
  // feed the measured commit *rate* to the controller, and ring the park
  // gate when the target moves. Runs between quanta, so a decision never
  // interleaves with message handling. The sample is normalized by the
  // interval actually elapsed — epochs only end at quantum boundaries, so
  // a long quantum stretches one; an unnormalized count would inflate
  // that epoch's sample in proportion and skew the sweep's comparison.
  void MaybeReallocate() {
    const hal::Cycles now = hal::Now();
    if (next_epoch_ == 0) {  // first quantum: anchor the epoch clock
      next_epoch_ = now + epoch_cycles_;
      last_epoch_now_ = now;
      return;
    }
    if (now < next_epoch_) return;
    next_epoch_ = now + epoch_cycles_;
    std::uint64_t committed = 0;
    for (runtime::WorkerContext* w : shared_->exec_ctxs) {
      committed += w->ReadEpochSnapshot().committed;
    }
    const double elapsed = static_cast<double>(now - last_epoch_now_);
    const double rate =
        static_cast<double>(committed - last_epoch_committed_) / elapsed;
    last_epoch_committed_ = committed;
    last_epoch_now_ = now;
    // Controller debugging/bench observability (host-side, unmodeled).
    static const bool trace = std::getenv("ORTHRUS_ELASTIC_TRACE") != nullptr;
    if (controller2d_ != nullptr) {
      // 2-D reallocation: exec moves ring the exec gate exactly as the 1-D
      // controller's; CC moves publish a new lock-space epoch first, so a
      // resumed CC thread's first Refresh sees a map that includes it and
      // a retiring one sees the map that excludes it.
      const ElasticController2D::Target before = controller2d_->target();
      const ElasticController2D::Target t = controller2d_->Step(rate);
      if (t.exec != before.exec) {
        shared_->exec_gate.SetTarget(t.exec);
        shared_->reallocations.fetch_add(1);
      }
      if (t.cc != before.cc) {
        shared_->space->Publish(
            shared_->ring->OwnersFor(shared_->n_parts, t.cc));
        shared_->cc_gate.SetTarget(t.cc);
        shared_->cc_reallocations.fetch_add(1);
        shared_->reallocations.fetch_add(1);
      }
      if (trace) {
        std::fprintf(
            stderr,
            "[elastic2d] epoch@%llu rate=%.3g/cycle cc %d->%d exec %d->%d\n",
            static_cast<unsigned long long>(now), rate, before.cc, t.cc,
            before.exec, t.exec);
      }
      return;
    }
    const int before = controller_->target();
    const int target = controller_->Step(rate);  // commits per cycle
    if (target != before) {
      shared_->exec_gate.SetTarget(target);
      shared_->reallocations.fetch_add(1);
    }
    if (trace) {
      std::fprintf(stderr,
                   "[elastic] epoch@%llu rate=%.3g/cycle target %d->%d\n",
                   static_cast<unsigned long long>(now), rate, before,
                   target);
    }
  }

  void Handle(std::uint64_t word) {
    Tcb* tcb = DecodeTcb(word);
    const MsgTag tag = DecodeTag(word);
    if (shared_->elastic_cc) {
      // Receipt authority check: only the shard's current owner may touch
      // its lock state. A message that lands elsewhere (stale sender view,
      // or a handoff store not yet observed) is re-routed under *this
      // thread's current map view* — never the raw shard-owner word: the
      // retire barrier only covers router views (all observed >= the
      // retirement epoch), so an owner-word target could name a CC slot
      // that relinquishes and parks before the forward lands. Under the
      // router view the forward may reach the new owner before the shard
      // does; it then self-requeues there (ShardOwner still the source)
      // until the relinquish lands — bounded by the source's next quantum
      // refresh, and never addressed to a parked slot.
      const int part = tag == kAcquire
                           ? tcb->stages[tcb->cur_stage].part
                           : tag == kRelease
                                 ? tcb->stages[DecodeStage(word)].part
                                 : -1;
      if (part >= 0 && shared_->space->ShardOwner(part) !=
                           static_cast<std::uint64_t>(cc_id_)) {
        shared_->cc_to_cc.Send(cc_id_, router_->OwnerOf(part), word);
        stats_->messages_sent++;
        return;
      }
    }
    switch (tag) {
      case kAcquire:
        ProcessAcquire(tcb);
        break;
      case kRelease:
        ProcessRelease(tcb, word);
        break;
      default:
        ORTHRUS_CHECK_MSG(false, "unexpected message at CC thread");
    }
  }

  // Enqueues the current stage's lock requests into the stage partition's
  // table. Returns true when every lock was granted immediately; otherwise
  // records tcb->pending (a later release's grant sweep advances it).
  bool AcquireStage(Tcb* tcb) {
    // Race-detector tags (free when race_detect is off): the CC thread
    // holding the in-flight kAcquire owns cur_stage, the stage entry, and
    // the stage's request slice; the mesh message that carried the tcb
    // here is the happens-before edge. Tag granularity is the stage slice,
    // never the whole tcb — other CC threads legally touch their own
    // disjoint slices concurrently during release fan-out.
    hal::RaceCheck(&tcb->cur_stage, sizeof(tcb->cur_stage),
                   /*is_write=*/false, "orthrus.tcb.stage");
    const Stage& stage = tcb->stages[tcb->cur_stage];
    hal::RaceCheck(&stage, sizeof(stage), /*is_write=*/false,
                   "orthrus.tcb.stages");
    RaceCheckRequests(tcb, stage);
    ORTHRUS_DCHECK(shared_->elastic_cc || stage.part == cc_id_);
    CcShard* shard =
        shared_->elastic_cc ? shared_->space->shard(stage.part) : nullptr;
    CcLockTable& locks = shard != nullptr ? shard->locks : locks_;
    std::uint32_t pending = 0;
    for (std::uint16_t i = stage.begin; i < stage.end; ++i) {
      const Access& a = tcb->txn.accesses[i];
      hal::ConsumeCycles(shared_->cc_op_cycles);
      CcLock* lock = locks.FindOrInsert(a.table, a.key);
      CcRequest* r = &tcb->inline_reqs[i];
      r->tcb = tcb;
      r->key = a.key;
      r->table = a.table;
      r->mode = a.mode;
      // FIFO enqueue. An exclusive request is grantable only on an empty
      // queue, a shared one while no exclusive request is queued.
      const bool grantable = a.mode == LockMode::kExclusive
                                 ? lock->head == nullptr
                                 : lock->queued_x == 0;
      r->next = nullptr;
      r->prev = lock->tail;
      if (lock->tail != nullptr) {
        lock->tail->next = r;
      } else {
        lock->head = r;
      }
      lock->tail = r;
      if (a.mode == LockMode::kExclusive) lock->queued_x++;
      r->granted = grantable;
      if (!grantable) {
        pending++;
        stats_->lock_waits++;
      }
      if (shard != nullptr) {
        shard->held++;
      } else {
        held_++;
      }
    }
    if (pending != 0) {
      hal::RaceCheck(&tcb->pending, sizeof(tcb->pending), /*is_write=*/true,
                     "orthrus.tcb.pending");
      tcb->pending = pending;
    }
    return pending == 0;
  }

  // The stage's request nodes belong to the CC thread processing it.
  static void RaceCheckRequests(Tcb* tcb, const Stage& stage) {
    hal::RaceCheck(&tcb->inline_reqs[stage.begin],
                   sizeof(CcRequest) *
                       static_cast<std::size_t>(stage.end - stage.begin),
                   /*is_write=*/true, "orthrus.tcb.reqs");
  }

  void ProcessAcquire(Tcb* tcb) {
    if (shared_->shared_cc != nullptr) {
      if (shared_->shared_cc->ContinueAcquire(tcb)) SendGrant(tcb);
      return;
    }
    if (AcquireStage(tcb)) Advance(tcb);
  }

  void ProcessRelease(Tcb* tcb, std::uint64_t word) {
    if (shared_->shared_cc != nullptr) {
      runnable_.clear();
      shared_->shared_cc->ReleaseAll(tcb, &runnable_);
      shared_->cc_to_exec.Send(cc_id_, tcb->exec_id, Encode(tcb, kAck));
      stats_->messages_sent++;
      // Continue the transactions our release unblocked; any that complete
      // their lock set are handed to their execution threads.
      for (Tcb* t : runnable_) {
        if (shared_->shared_cc->ContinueAcquire(t)) SendGrant(t);
      }
      return;
    }
    if (shared_->elastic_cc) {
      // Stage-addressed release: the message names the stage, so a thread
      // that owns several of the transaction's partitions releases exactly
      // the one this message is for — one ack per release message.
      const Stage& stage = tcb->stages[DecodeStage(word)];
      CcShard* shard = shared_->space->shard(stage.part);
      ReleaseStage(tcb, stage, shard->locks, shard->held);
    } else {
      // Find our stage (stage lists are tiny; partition id == CC id).
      for (int s = 0; s < tcb->n_stages; ++s) {
        const Stage& stage = tcb->stages[s];
        if (stage.part != cc_id_) continue;
        ReleaseStage(tcb, stage, locks_, held_);
        break;
      }
    }
    // Release requests are satisfied and acknowledged immediately
    // (Section 3.1).
    shared_->cc_to_exec.Send(cc_id_, tcb->exec_id, Encode(tcb, kAck));
    stats_->messages_sent++;
  }

  // Releases one stage's requests from `locks` (the stage partition's
  // table under elastic_cc, the thread-local table otherwise), granting
  // unblocked followers, erasing locks left with no queued request, and
  // updating the matching held-lock counter. Each lock is found again by
  // its (table, key): an earlier Erase may have moved it.
  void ReleaseStage(Tcb* tcb, const Stage& stage, CcLockTable& locks,
                    std::uint64_t& held) {
    // Concurrent releases of *other* stages are legal; these tags cover
    // only this stage's entry and request slice.
    hal::RaceCheck(&stage, sizeof(stage), /*is_write=*/false,
                   "orthrus.tcb.stages");
    RaceCheckRequests(tcb, stage);
    for (std::uint16_t i = stage.begin; i < stage.end; ++i) {
      CcRequest* r = &tcb->inline_reqs[i];
      hal::ConsumeCycles(shared_->cc_op_cycles);
      CcLock* lock = locks.Find(r->table, r->key);
      ORTHRUS_DCHECK(lock != nullptr);
      Unlink(lock, r);
      if (lock->head == nullptr) {
        locks.Erase(lock);
      } else {
        GrantFollowers(lock);
      }
      ORTHRUS_DCHECK(held > 0);
      held--;
    }
  }

  static void Unlink(CcLock* lock, CcRequest* r) {
    ORTHRUS_DCHECK(lock->head != nullptr);
    if (r->mode == LockMode::kExclusive) lock->queued_x--;
    if (r->prev != nullptr) {
      r->prev->next = r->next;
    } else {
      lock->head = r->next;
    }
    if (r->next != nullptr) {
      r->next->prev = r->prev;
    } else {
      lock->tail = r->prev;
    }
    r->prev = r->next = nullptr;
  }

  // Grants the queue's newly compatible prefix. A granted transaction may
  // advance into AcquireStage on this thread (elastic_cc local continue),
  // which can insert into the same table but never erases, so `lock` stays
  // valid for the whole sweep.
  void GrantFollowers(CcLock* lock) {
    bool x_seen = false;
    for (CcRequest* r = lock->head; r != nullptr; r = r->next) {
      if (!r->granted) {
        const bool grantable = r->mode == LockMode::kExclusive
                                   ? r == lock->head
                                   : !x_seen;
        if (!grantable) break;
        r->granted = true;
        Tcb* t = r->tcb;
        hal::RaceCheck(&t->pending, sizeof(t->pending), /*is_write=*/true,
                       "orthrus.tcb.pending");
        ORTHRUS_DCHECK(t->pending > 0);
        if (--t->pending == 0) Advance(t);
      }
      if (r->mode == LockMode::kExclusive) x_seen = true;
    }
  }

  void SendGrant(Tcb* tcb) {
    shared_->cc_to_exec.Send(cc_id_, tcb->exec_id, Encode(tcb, kGrant));
    stats_->messages_sent++;
  }

  // All locks of tcb's current stage are granted: forward along the chain
  // (Section 3.3), continue locally when this thread also owns the next
  // stage's shard (elastic_cc — a self-addressed message would be pure
  // overhead), or hand back to the execution thread.
  void Advance(Tcb* tcb) {
    for (;;) {
      const int next = tcb->cur_stage + 1;
      if (next >= tcb->n_stages) {
        SendGrant(tcb);
        return;
      }
      if (!shared_->forwarding) {
        // Ablation mode: the execution thread mediates every hop, paying
        // two message delays per CC thread (2*Ncc total).
        shared_->cc_to_exec.Send(cc_id_, tcb->exec_id,
                                 Encode(tcb, kStageDone));
        stats_->messages_sent++;
        return;
      }
      hal::RaceCheck(&tcb->cur_stage, sizeof(tcb->cur_stage),
                     /*is_write=*/true, "orthrus.tcb.stage");
      tcb->cur_stage = next;
      const int part = tcb->stages[next].part;
      if (shared_->elastic_cc) {
        if (shared_->space->ShardOwner(part) ==
            static_cast<std::uint64_t>(cc_id_)) {
          if (AcquireStage(tcb)) continue;  // granted: keep advancing
          return;  // queued behind a conflict in our own shard
        }
        shared_->cc_to_cc.Send(cc_id_, router_->OwnerOf(part),
                               Encode(tcb, kAcquire));
      } else {
        shared_->cc_to_cc.Send(cc_id_, part, Encode(tcb, kAcquire));
      }
      stats_->messages_sent++;
      return;
    }
  }

  int cc_id_;
  Shared* shared_;
  WorkerStats* stats_;
  CcLockTable locks_;
  // Elastic-epoch controller state (CC 0 only; null elsewhere).
  ElasticController* controller_;
  ElasticController2D* controller2d_;
  hal::Cycles epoch_cycles_;
  // elastic_cc: this thread's cached lock-space view (null otherwise).
  std::unique_ptr<Router> router_;
  hal::Cycles next_epoch_ = 0;
  hal::Cycles last_epoch_now_ = 0;
  std::uint64_t last_epoch_committed_ = 0;
  std::uint64_t held_ = 0;
  std::vector<Tcb*> runnable_;  // scratch for shared-mode release grants
};

// ----------------------------------------------------------- exec thread

class ExecThread {
 public:
  // TCBs are address-stable for the run and non-trivially destructible
  // (Txn holds vectors), so arena-placed ones are destroyed in place while
  // the arena keeps the storage; heap ones delete normally.
  struct TcbDeleter {
    bool in_arena = false;
    void operator()(Tcb* t) const {
      if (in_arena) {
        t->~Tcb();
      } else {
        delete t;
      }
    }
  };

  // `arena`, when non-null, places this thread's 512-aligned TCBs on its
  // home node (NUMA placement; see Run). Null keeps heap TCBs.
  ExecThread(int exec_id, Shared* shared, storage::Database* db,
             const workload::Workload& workload,
             runtime::WorkerContext* worker,
             const runtime::DriverOptions& driver_options, int max_inflight,
             hal::SlabArena* arena = nullptr)
      : exec_id_(exec_id),
        shared_(shared),
        db_(db),
        worker_(worker),
        stats_(&worker->stats),
        max_inflight_(max_inflight),
        source_(workload.MakeSource(shared->n_cc + exec_id)),
        admission_(driver_options, db, source_.get(), worker) {
    if (shared_->elastic_cc) {
      // Router slots are worker ids: CC threads first, then exec threads.
      router_ = std::make_unique<Router>(  // lint:allow-alloc setup
          shared->space, shared->n_cc + exec_id);
    }
    if (shared_->snapshot_reads) {
      // Snapshot eligibility per table (fixed population + versions on)
      // and the per-access staging buffer readers copy versions into.
      // Run() enabled the version slabs before constructing exec threads.
      std::uint32_t max_stride = 8;
      table_snapshot_ok_.resize(db->num_tables());  // lint:allow-alloc setup
      for (std::size_t i = 0; i < db->num_tables(); ++i) {
        const storage::Table* tbl =
            db->GetTable(static_cast<std::uint32_t>(i));
        max_stride = std::max(max_stride, tbl->row_stride());
        table_snapshot_ok_[i] =
            tbl->versions_enabled() && !tbl->has_append_region();
      }
      snap_stride_ = max_stride;
      snap_scratch_.resize(  // lint:allow-alloc setup
          static_cast<std::size_t>(kMaxAccesses) * max_stride);
    }
    tcbs_.reserve(static_cast<std::size_t>(max_inflight));
    for (int i = 0; i < max_inflight; ++i) {
      // lint:allow-alloc setup: in-flight window built before the run
      Tcb* t = arena != nullptr
                   ? new (arena->Allocate(sizeof(Tcb), alignof(Tcb))) Tcb()
                   : new Tcb();  // lint:allow-alloc setup
      tcbs_.emplace_back(t, TcbDeleter{arena != nullptr});
      t->exec_id = exec_id_;
      t->slot = i;
      free_slots_.push_back(i);
    }
  }

  // Pipelined counterpart of runtime::TxnDriver::Run: the admission front
  // end (gate, pull, plan, stamp) and replanning are the shared runtime's;
  // only the in-flight window and the grant/ack event loop are ORTHRUS's
  // own. Runs with the worker's clock already begun (WorkerPool::Spawn).
  //
  // Elastic lifecycle: the thread registers as a mesh sender up front and
  // stays registered while active. When the controller's target drops
  // below this thread's index it stops admitting, drains its in-flight
  // window to empty, retires from the mesh, and parks on the gate; resume
  // re-registers and re-opens admission. The drain-to-empty ordering is
  // what guarantees no message is ever lost or stranded across a
  // reallocation epoch.
  void Main() {
    if (shared_->elastic) RegisterCcSender();
    // The wal producer registers with the log's mesh and publishes its
    // epoch heartbeat from its constructor, so it must be built on-core
    // (ExecThread itself is constructed before the workers start).
    std::unique_ptr<wal::Producer> wal_owned;
    if (shared_->wal != nullptr) {
      wal_owned =  // lint:allow-alloc setup: once, before the first txn
          std::make_unique<wal::Producer>(shared_->wal, exec_id_, worker_);
      wal_ = wal_owned.get();
    }
    hal::IdleBackoff idle(256);
    while (true) {
      // elastic_cc: adopt the latest lock-space epoch before issuing or
      // releasing anything this quantum (one modeled load when unchanged).
      if (shared_->elastic_cc) router_->Refresh();
      // Snapshot epoch heartbeats: the quantum top is a transaction
      // boundary for this thread — no install or snapshot read is in
      // flight (both complete synchronously inside Execute /
      // ExecuteSnapshot), so both heartbeats may advance. Pipelined
      // transactions still holding locks are fine: their installs load
      // the commit epoch later, inside Execute, so it is >= the writer
      // heartbeat published here. Without a WAL logger driving the clock,
      // also offer an interval-gated tick.
      if (shared_->snapshot_reads) {
        storage::EpochClock* clock = db_->epoch_clock();
        clock->PublishIdle(exec_id_, &epoch_cache_);
        if (shared_->wal == nullptr) clock->MaybeTick(hal::Now());
      }
      // Durability quantum maintenance: flush staged fragments, publish
      // the epoch heartbeat, acknowledge matured group commits.
      if (wal_ != nullptr) wal_->Poll();
      bool progress = PollGrants();
      if (!shared_->elastic || shared_->exec_gate.Active(exec_id_)) {
        progress |= IssueNew();
      }
      if (shared_->elastic) PublishStatsIfChanged();
      if (progress) {
        idle.Reset();
        continue;
      }
      // One reading gates the exit and starts the waiting span.
      const hal::Cycles t0 = hal::Now();
      if (Stopping(t0) && inflight_ == 0 && WalDrained()) break;
      if (shared_->elastic && inflight_ == 0 && WalDrained() &&
          !shared_->exec_gate.Active(exec_id_)) {
        ParkUntilResumedOrStopping();
        idle.Reset();
        continue;
      }
      idle.Idle();
      stats_->Add(TimeCategory::kWaiting, hal::Now() - t0);
    }
    // Drop out of the epoch mins: a finished thread's frozen heartbeats
    // must not pin the read epoch or the reader floor for stragglers.
    if (shared_->snapshot_reads) db_->epoch_clock()->Retire(exec_id_);
    if (wal_ != nullptr) wal_->Retire();
    if (shared_->elastic_cc) {
      // Drop out of the epoch barriers: a retiring CC thread must not
      // wait on the observed version of a finished exec thread.
      router_->Deactivate();
    }
    if (shared_->elastic) {
      worker_->PublishEpochStats();
      shared_->exec_to_cc_multi.RetireSender();
    }
    shared_->execs_done.fetch_add(1);
  }

 private:
  // With durability on, the commit cap must count every admitted-but-not-
  // yet-durable transaction: captured commits waiting on group commit
  // (PendingCount) and admitted transactions still in the lock pipeline
  // (wal_uncaptured_ — disjoint from the pending queue, which a
  // transaction only enters at Capture). Without it a capped run would
  // admit cap-plus-pipeline-depth. Durability off keeps the historical
  // committed-only gate, bit-identical to pre-wal runs. `now` is the
  // caller's clock reading.
  bool Stopping(hal::Cycles now) const {
    return !admission_.Open(
        now, wal_ != nullptr ? wal_->PendingCount() + wal_uncaptured_ : 0);
  }

  bool WalDrained() const { return wal_ == nullptr || wal_->Drained(); }

  // --- exec->CC send path (static SPSC or elastic MPSC) ----------------

  void SendCc(int cc, std::uint64_t w) {
    if (shared_->elastic) {
      shared_->exec_to_cc_multi.SendOnRing(cc, cc_ring_, w);
    } else {
      shared_->exec_to_cc.Send(exec_id_, cc, w);
    }
  }

  // Joins the elastic exec->CC sender population and resolves this
  // thread's ring under the current routing modulus. The ring stays fixed
  // until the next registration, so this thread's stream stays FIFO.
  // Shard hint = exec id: stable for the thread's lifetime, spreads senders
  // evenly across the mesh's shards.
  void RegisterCcSender() {
    shared_->exec_to_cc_multi.RegisterSender();
    cc_ring_ = shared_->exec_to_cc_multi.RingForHint(exec_id_);
  }

  // --- elastic park / resume -------------------------------------------

  // Mirror the commit counter for the controller when it moved (two
  // modeled stores per change, nothing when idle).
  void PublishStatsIfChanged() {
    if (stats_->committed != last_published_committed_) {
      last_published_committed_ = stats_->committed;
      worker_->PublishEpochStats();
    }
  }

  void ParkUntilResumedOrStopping() {
    // Drain-to-empty before retiring: inflight_ == 0 means no grant, ack,
    // or release involving this thread is outstanding anywhere in the mesh.
    worker_->PublishEpochStats();
    // Park the wal producer first: it flushes its staged fragments,
    // publishes the done sentinel (so loggers stop waiting on this
    // thread's epoch heartbeat), and retires from the log mesh. The park
    // gate only opens with the pending queue drained (see Main).
    if (wal_ != nullptr) wal_->Park();
    if (shared_->elastic_cc) router_->Deactivate();
    // A parked thread must not freeze the epoch mins (its heartbeats would
    // pin the read epoch and the reader floor for the whole park, stalling
    // every installing writer); retire the slot and rejoin on resume.
    if (shared_->snapshot_reads) db_->epoch_clock()->Retire(exec_id_);
    shared_->exec_to_cc_multi.RetireSender();
    const hal::Cycles parked =
        shared_->exec_gate.Park(exec_id_,
                                [this] { return Stopping(hal::Now()); });
    stats_->Add(TimeCategory::kWaiting, parked);
    if (shared_->snapshot_reads) {
      // Rejoin the mins at current values. The publish cache still holds
      // pre-park values, so reset it to the retired sentinels first —
      // otherwise PublishIdle could skip the store that un-retires us.
      epoch_cache_.wh = storage::EpochClock::kRetired;
      epoch_cache_.rh = storage::EpochClock::kRetired;
      db_->epoch_clock()->PublishIdle(exec_id_, &epoch_cache_);
    }
    RegisterCcSender();
    if (wal_ != nullptr) wal_->Resume();
    if (shared_->elastic_cc) router_->Refresh();
  }

  bool PollGrants() {
    const std::size_t n = shared_->cc_to_exec.Drain(
        exec_id_,
        [this](std::uint64_t w) {
          switch (DecodeTag(w)) {
            case kGrant:
              Execute(DecodeTcb(w));
              break;
            case kStageDone: {
              // Non-forwarding mode: we mediate the next hop ourselves.
              Tcb* tcb = DecodeTcb(w);
              hal::RaceCheck(&tcb->cur_stage, sizeof(tcb->cur_stage),
                             /*is_write=*/true, "orthrus.tcb.stage");
              tcb->cur_stage++;
              ORTHRUS_DCHECK(tcb->cur_stage < tcb->n_stages);
              SendAcquire(tcb, RouteTo(tcb->stages[tcb->cur_stage].part));
              break;
            }
            case kAck:
              OnAck(DecodeTcb(w));
              break;
            default:
              ORTHRUS_CHECK_MSG(false, "unexpected message at exec thread");
          }
        });
    return n != 0;
  }

  // Resolves a lock partition to the CC thread that owns it: identity for
  // the static lock space, the cached SpaceMap view under elastic_cc.
  int RouteTo(int part) const {
    return shared_->elastic_cc ? router_->OwnerOf(part) : part;
  }

  // Clock readings chain through the stage boundaries: the first is taken
  // only once a slot is free, and each later one is the end of the
  // previous stage — Admit's post-plan stamp starts Dispatch, whose end
  // gates the next admission.
  bool IssueNew() {
    bool issued = false;
    // Backpressure admission: the cap tracks the AIMD window when the mode
    // is on and equals max_inflight_ (making the check redundant with the
    // free-slot test) when off — no clock read, byte-identical.
    const int cap = admission_.InflightCap(max_inflight_);
    hal::Cycles now = 0;  // 0: not read yet
    while (!free_slots_.empty() && inflight_ < cap) {
      if (now == 0) now = hal::Now();
      if (Stopping(now)) break;
      // Durability admission gate: every admitted transaction will Capture
      // into the fragment arena when its grant arrives — regardless of
      // arena pressure at that moment — so admission reserves a worst-case
      // fragment footprint for each uncaptured in-flight transaction plus
      // the one about to be admitted.
      if (wal_ != nullptr && !wal_->AdmitReady(wal_uncaptured_ + 1)) break;
      const int slot = free_slots_.back();
      free_slots_.pop_back();
      Tcb* tcb = tcbs_[slot].get();
      // Pull + plan (reconnaissance) + stamp.
      now = admission_.Admit(&tcb->txn, now);
      // Snapshot bypass: a classified read-only transaction never enters
      // the CC mesh — it executes lock-free against the versioned slabs
      // right here and its slot recycles immediately. It also never
      // touches the WAL pipeline (nothing to capture), so the uncaptured
      // counter stays untouched.
      if (shared_->snapshot_reads && tcb->txn.read_only &&
          SnapshotEligible(tcb->txn)) {
        now = ExecuteSnapshot(tcb);
        free_slots_.push_back(slot);
        issued = true;
        continue;
      }
      if (wal_ != nullptr) wal_uncaptured_++;
      tcb->replan_pending = false;
      tcb->counted_commit = false;
      now = Dispatch(tcb, now);
      issued = true;
    }
    return issued;
  }

  // Resolves and prefetches every access's row, sorts the accesses into
  // CC-thread order and starts the acquisition chain. In shared-CC mode the
  // sort is the global key order and a single home CC thread (round robin)
  // handles the whole transaction. `t0` is the caller's clock reading;
  // returns the reading that ends the span.
  //
  // Resolution is planned data access: the index is read-only during a
  // run, so a row's address does not depend on its lock, and the misses
  // overlap the lock requests instead of lengthening lock hold time.
  // Before the grant only pointers are stored and prefetch hints issued;
  // row contents are never touched. It sits after Admit's stamp, so
  // commit latency includes it, and before the first acquire, after which
  // the CC threads read these Access lines. It is charged to kExecution.
  hal::Cycles Dispatch(Tcb* tcb, hal::Cycles t0) {
    Txn& t = tcb->txn;
    ORTHRUS_CHECK(t.accesses.size() <= kMaxAccesses);
    ResolveRows(db_, &t.accesses);
    const hal::Cycles tr = hal::Now();
    stats_->Add(TimeCategory::kExecution, tr - t0);
    if (shared_->shared_cc != nullptr) {
      std::sort(t.accesses.begin(), t.accesses.end(), txn::AccessKeyOrder());
      hal::RaceCheck(&tcb->next_acq, sizeof(tcb->next_acq), /*is_write=*/true,
                     "orthrus.tcb.next_acq");
      tcb->next_acq = 0;
      tcb->home_cc = static_cast<int>(rr_counter_++ %
                                      static_cast<std::uint64_t>(shared_->n_cc));
      inflight_++;
      shared_->inflight_global.fetch_add(1);
      SendAcquire(tcb, tcb->home_cc);
      const hal::Cycles t1 = hal::Now();
      stats_->Add(TimeCategory::kLocking, t1 - tr);
      return t1;
    }
    tcb->n_stages = BuildStages(&t.accesses, db_->partitioner(),
                                sort_scratch_.data(), tcb->stages.data());
    // Slot reuse: the previous occupant's CC-side touches happen-before
    // this dispatch via the ack messages that freed the slot.
    hal::RaceCheck(&tcb->cur_stage, sizeof(tcb->cur_stage), /*is_write=*/true,
                   "orthrus.tcb.stage");
    hal::RaceCheck(&tcb->stages[0],
                   sizeof(Stage) * static_cast<std::size_t>(tcb->n_stages),
                   /*is_write=*/true, "orthrus.tcb.stages");
    tcb->cur_stage = 0;
    inflight_++;
    shared_->inflight_global.fetch_add(1);
    SendAcquire(tcb, RouteTo(tcb->stages[0].part));
    const hal::Cycles t1 = hal::Now();
    stats_->Add(TimeCategory::kLocking, t1 - tr);
    return t1;
  }

  void SendAcquire(Tcb* tcb, int cc) {
    SendCc(cc, Encode(tcb, kAcquire));
    stats_->messages_sent++;
  }

  // All locks granted: run the procedure on the rows Dispatch resolved and
  // prefetched, then release everything. Three clock readings: the start,
  // the end of the logic (which also stamps the commit latency and starts
  // the release span), and the end.
  void Execute(Tcb* tcb) {
    const hal::Cycles t0 = hal::Now();
    Txn& t = tcb->txn;
    txn::ExecContext ec{db_, stats_, /*charge_cycles=*/true};
    const bool ok = t.logic->Run(&t, ec);
    const hal::Cycles t1 = hal::Now();
    stats_->Add(TimeCategory::kExecution, t1 - t0);

    if (ok) {
      if (wal_ != nullptr) {
        // Capture redo images now, while every lock is still held: the
        // releases below are messages, and the CC threads only drop the
        // locks when they process them. Commit accounting moves to the
        // group-commit acknowledgement (Producer::Poll).
        wal_->Capture(&t, db_);
        wal_uncaptured_--;
      } else {
        stats_->committed++;
        stats_->txn_latency.Record(t1 - t.start_cycles);
      }
      tcb->counted_commit = true;
      // Version install, still under every lock (the releases below are
      // messages; CC threads only drop the locks when they process them):
      // the post-images the logic just wrote become the newest committed
      // versions, stamped with the current commit epoch. The writer
      // heartbeat is published before the stamp is used, pinning the read
      // epoch below it until this thread's next quantum boundary.
      if (shared_->snapshot_reads) {
        storage::EpochClock* clock = db_->epoch_clock();
        const std::uint64_t e = clock->CommitEpoch();
        clock->PublishWriter(exec_id_, e, &epoch_cache_);
        for (Access& a : t.accesses) {
          if (a.mode != txn::LockMode::kExclusive) continue;
          storage::Table* tbl = db_->GetTable(a.table);
          if (!tbl->versions_enabled()) continue;
          tbl->InstallVersion(tbl->SlotOfRow(a.row), e, clock, exec_id_,
                              &epoch_cache_);
        }
      }
    } else {
      tcb->replan_pending = true;  // stale OLLP estimate: re-plan after acks
    }

    hal::RaceCheck(&tcb->pending_acks, sizeof(tcb->pending_acks),
                   /*is_write=*/true, "orthrus.tcb.acks");
    if (shared_->shared_cc != nullptr) {
      tcb->pending_acks = 1;
      SendCc(tcb->home_cc, Encode(tcb, kRelease));
      stats_->messages_sent++;
    } else {
      // One stage-addressed release per stage. Under elastic_cc several
      // stages may route to the same CC thread; the stage index in the
      // message keeps every release-ack pair 1:1.
      tcb->pending_acks = tcb->n_stages;
      for (int s = 0; s < tcb->n_stages; ++s) {
        SendCc(RouteTo(tcb->stages[s].part), EncodeRelease(tcb, s));
        stats_->messages_sent++;
      }
    }
    stats_->Add(TimeCategory::kLocking, hal::Now() - t1);
  }

  // --- snapshot read path ----------------------------------------------

  // Reconnaissance-planned transactions validate estimates against live
  // rows (their Run may demand a re-plan, which the lock-free path cannot
  // service), and appended rows materialize outside the version protocol;
  // both fall back to ordinary CC.
  bool SnapshotEligible(const Txn& t) const {
    if (t.logic->NeedsReconnaissance()) return false;
    for (const Access& a : t.accesses) {
      if (!table_snapshot_ok_[a.table]) return false;
    }
    return true;
  }

  // Lock-free snapshot execution: load the read epoch once, copy each
  // row's newest version stamped at or below it into the staging buffer,
  // run the logic against the copies. Zero locks, zero messages. Returns
  // the reading that ends the span.
  hal::Cycles ExecuteSnapshot(Tcb* tcb) {
    const hal::Cycles t0 = hal::Now();
    Txn& t = tcb->txn;
    storage::EpochClock* clock = db_->epoch_clock();
    std::uint64_t r = clock->ReadEpoch();
    for (;;) {
      bool fresh = true;
      for (std::size_t i = 0; i < t.accesses.size(); ++i) {
        Access& a = t.accesses[i];
        ResolveRow(db_, &a);
        storage::Table* tbl = db_->GetTable(a.table);
        std::uint8_t* dst = snap_scratch_.data() + i * snap_stride_;
        if (!tbl->SnapshotRead(tbl->SlotOfRow(a.row), r, dst)) {
          fresh = false;
          break;
        }
        a.row = dst;
      }
      if (fresh) break;
      // A row advanced twice past `r`: abandon the attempt, publish the
      // reader heartbeat (licensing the floor past the abandoned reads),
      // and restart the whole read set at a fresher epoch — refreshing a
      // single row would observe mixed epochs.
      clock->PublishIdle(exec_id_, &epoch_cache_);
      // Fold the read epoch forward ourselves — a stale row means writers
      // have moved past r, and waiting for the next tick to notice would
      // stall this reader for the whole tick interval.
      clock->FoldMins();
      if (shared_->wal == nullptr) clock->MaybeTick(hal::Now());
      hal::CpuRelax();
      r = clock->ReadEpoch();
    }
    txn::ExecContext ec{db_, stats_, /*charge_cycles=*/true};
    const bool ok = t.logic->Run(&t, ec);
    // Gated on !NeedsReconnaissance, so the plan cannot be stale.
    ORTHRUS_CHECK_MSG(ok, "snapshot read-only txn demanded a re-plan");
    // Read-only commits are trivially durable (no redo): they bypass the
    // WAL pipeline, so they are counted here even with durability on.
    const hal::Cycles t1 = hal::Now();
    stats_->committed++;
    stats_->txn_latency.Record(t1 - t.start_cycles);
    stats_->Add(TimeCategory::kExecution, t1 - t0);
    return t1;
  }

  void OnAck(Tcb* tcb) {
    hal::RaceCheck(&tcb->pending_acks, sizeof(tcb->pending_acks),
                   /*is_write=*/true, "orthrus.tcb.acks");
    ORTHRUS_DCHECK(tcb->pending_acks > 0);
    if (--tcb->pending_acks > 0) return;
    if (tcb->replan_pending) {
      tcb->replan_pending = false;
      if (admission_.planner()->Replan(&tcb->txn, stats_)) {
        // Re-dispatch the same transaction with the fresh estimate. The
        // slot stays occupied; inflight counters already include it.
        inflight_--;
        shared_->inflight_global.fetch_add(
            static_cast<std::uint64_t>(-1));
        Dispatch(tcb, hal::Now());
        return;
      }
    }
    inflight_--;
    shared_->inflight_global.fetch_add(static_cast<std::uint64_t>(-1));
    free_slots_.push_back(tcb->slot);
  }

  int exec_id_;
  Shared* shared_;
  storage::Database* db_;
  runtime::WorkerContext* worker_;
  WorkerStats* stats_;
  int max_inflight_;
  std::unique_ptr<workload::TxnSource> source_;
  runtime::TxnAdmission admission_;
  // Elastic mode: this thread's exec->CC ring (see RegisterCcSender).
  int cc_ring_ = 0;
  std::vector<std::unique_ptr<Tcb, TcbDeleter>> tcbs_;
  std::vector<int> free_slots_;
  int inflight_ = 0;
  // Dispatch's sort buffer: accesses paired with their partitions.
  std::array<PartedAccess, kMaxAccesses> sort_scratch_;
  // Durability (null when off): producer owned by Main's frame — it must
  // be constructed and destroyed on-core. wal_uncaptured_ counts admitted
  // transactions that have not reached Capture yet (see IssueNew).
  wal::Producer* wal_ = nullptr;
  std::uint64_t wal_uncaptured_ = 0;
  std::uint64_t last_published_committed_ = 0;
  std::uint64_t rr_counter_ = 0;  // shared-CC home assignment
  // elastic_cc: this thread's cached lock-space view (null otherwise).
  std::unique_ptr<Router> router_;
  // Snapshot read path (empty / default unless shared_->snapshot_reads):
  // per-table eligibility, the version staging buffer, and the heartbeat
  // publish cache for epoch clock slot exec_id_.
  std::vector<bool> table_snapshot_ok_;
  std::vector<std::uint8_t> snap_scratch_;
  std::uint32_t snap_stride_ = 0;
  storage::EpochClock::PublishCache epoch_cache_;
};

}  // namespace

OrthrusEngine::OrthrusEngine(EngineOptions options, OrthrusOptions orthrus)
    : options_(options), orthrus_(orthrus) {
  ORTHRUS_CHECK(orthrus_.num_cc >= 1);
  ORTHRUS_CHECK(options_.num_cores > orthrus_.num_cc);
  ORTHRUS_CHECK(orthrus_.max_inflight >= 1);
  if (orthrus_.elastic) {
    ORTHRUS_CHECK(orthrus_.elastic_min_exec >= 1);
    ORTHRUS_CHECK(orthrus_.elastic_min_exec <=
                  options_.num_cores - orthrus_.num_cc);
    ORTHRUS_CHECK(orthrus_.elastic_epoch_seconds > 0);
    ORTHRUS_CHECK(orthrus_.elastic_step >= 1);
  }
  if (orthrus_.elastic_cc) {
    // Elastic CC counts ride on the elastic infrastructure (MPSC mesh,
    // park gates, epoch controller) and a partitioned lock space.
    ORTHRUS_CHECK_MSG(orthrus_.elastic, "elastic_cc requires elastic");
    ORTHRUS_CHECK_MSG(!orthrus_.shared_cc_table,
                      "elastic_cc partitions the lock space; the shared "
                      "CC table has no partitions to hand off");
    ORTHRUS_CHECK_MSG(!orthrus_.split_index,
                      "split indexes pin storage to a fixed CC count");
    ORTHRUS_CHECK(orthrus_.elastic_min_cc >= 1);
    ORTHRUS_CHECK(orthrus_.elastic_min_cc <= orthrus_.num_cc);
    ORTHRUS_CHECK(orthrus_.cc_partitions == 0 ||
                  orthrus_.cc_partitions >= orthrus_.num_cc);
  }
  ORTHRUS_CHECK(orthrus_.mesh_capacity_factor > 0.0 &&
                orthrus_.mesh_capacity_factor <= 1.0);
  if (orthrus_.mesh_capacity_factor < 1.0) {
    // Deadlock-safety argument for under-provisioning (see the header)
    // only covers the elastic exec->CC mesh.
    ORTHRUS_CHECK_MSG(orthrus_.elastic,
                      "mesh_capacity_factor shapes the elastic mesh");
  }
  if (orthrus_.backpressure_admission) {
    ORTHRUS_CHECK(orthrus_.backpressure_epoch_seconds > 0);
  }
}

std::string OrthrusEngine::name() const {
  std::string n = orthrus_.split_index ? "split-orthrus" : "orthrus";
  if (!orthrus_.forwarding) n += "-nofwd";
  if (orthrus_.shared_cc_table) n += "-sharedcc";
  if (orthrus_.elastic) n += "-elastic";
  if (orthrus_.elastic_cc) n += "cc";
  if (orthrus_.backpressure_admission) n += "-bp";
  if (orthrus_.snapshot_reads) n += "-snap";
  return n;
}

RunResult OrthrusEngine::Run(hal::Platform* platform, storage::Database* db,
                             const workload::Workload& workload) {
  const int n_cc = orthrus_.num_cc;
  const int n_exec = options_.num_cores - n_cc;
  // Lock partitions: with elastic_cc the lock space is split finer than
  // the CC population so ownership can rebalance in sub-thread steps; the
  // static path keeps the historical partition == CC identity.
  const int n_parts =
      orthrus_.elastic_cc
          ? (orthrus_.cc_partitions > 0 ? orthrus_.cc_partitions : 2 * n_cc)
          : n_cc;
  if (!orthrus_.shared_cc_table) {
    ORTHRUS_CHECK_MSG(db->partitioner().n == n_parts,
                      "ORTHRUS needs the database partitioner configured "
                      "with one partition per lock partition (== CC thread "
                      "on the static path)");
  }

  // Durability: one wal producer per exec thread (CC threads never commit),
  // logger workers above the CC/exec cores. Admission reserves a worst-case
  // arena footprint per in-flight transaction (see ExecThread::IssueNew),
  // so the arena must fit the whole pipeline or admission wedges shut.
  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  if (options_.wal != nullptr) {
    ORTHRUS_CHECK_MSG(options_.wal->n_producers() == n_exec,
                      "ORTHRUS durability needs one wal producer slot per "
                      "exec thread (n_producers == num_cores - num_cc)");
    ORTHRUS_CHECK_MSG(
        static_cast<std::uint64_t>(options_.wal->options().arena_records) >=
            (static_cast<std::uint64_t>(orthrus_.max_inflight) + 1) *
                wal::kMaxTxnFragments,
        "wal fragment arena too small for the in-flight window: need "
        "arena_records >= (max_inflight + 1) * kMaxTxnFragments");
  }

  // ---- NUMA placement. Active only when the caller supplied a real
  // multi-socket topology; null or flat keeps every allocation and every
  // worker->core assignment exactly as before (byte-identical runs). The
  // shared-CC table opts out: it shards its latch state by hal::CoreId(),
  // which a non-identity worker->core map would send out of range.
  //
  // Policy (the paper's data-locality argument taken to the socket level):
  // group 0 = CC threads plus the log streams they feed, packed together
  // on socket 0 so the lock partitions, the CC-side mesh rings, and the
  // CC<->CC forwarding chains never cross the interconnect; group 1 = exec
  // threads, filling the remaining cores socket-major, with each exec
  // thread's grant-queue rings and TCBs carved from its own node's arena.
  const hal::Topology* topo = options_.topology;
  const bool placement =
      topo != nullptr && !topo->flat() && !orthrus_.shared_cc_table;
  std::vector<int> core_of_worker;    // worker id -> core id
  std::vector<int> socket_of_worker;  // worker id -> modeled socket
  hal::NodeArenaSet arenas;  // outlives Shared: rings point into the slabs
  if (placement) {
    std::vector<std::vector<int>> groups(2);
    for (int c = 0; c < n_cc; ++c) groups[0].push_back(c);
    for (int l = 0; l < loggers; ++l) {
      groups[0].push_back(options_.num_cores + l);
    }
    for (int e = 0; e < n_exec; ++e) groups[1].push_back(n_cc + e);
    core_of_worker = topo->PackGroups(groups);
    socket_of_worker.resize(core_of_worker.size());
    for (std::size_t w = 0; w < core_of_worker.size(); ++w) {
      socket_of_worker[w] = topo->SocketOf(core_of_worker[w]);
    }
  }

  Shared shared;
  shared.n_cc = n_cc;
  shared.n_exec = n_exec;
  shared.wal = options_.wal;
  shared.forwarding = orthrus_.forwarding;
  shared.elastic = orthrus_.elastic;
  shared.elastic_cc = orthrus_.elastic_cc;
  shared.n_parts = n_parts;
  shared.cc_op_cycles = orthrus_.cc_op_cycles;
  shared.snapshot_reads = orthrus_.snapshot_reads;
  if (orthrus_.snapshot_reads) {
    // Version pairs + epoch clock, (re)seeded from the current main slabs
    // (after a WAL recovery this folds the replayed images into the
    // snapshot baseline). One heartbeat slot per exec thread; CC threads
    // and loggers never install or read versions. With durability on, the
    // group-commit logger ticks the clock on its epoch cadence; otherwise
    // exec threads offer interval-gated ticks.
    db->EnableSnapshotVersions(n_exec, orthrus_.snapshot_epoch_cycles);
    if (options_.wal != nullptr) {
      options_.wal->set_epoch_clock(db->epoch_clock());
    }
  }
  if (orthrus_.shared_cc_table) {
    shared.shared_cc =  // lint:allow-alloc setup
        std::make_unique<SharedCcTable>(n_cc, orthrus_.cc_op_cycles);
  }

  // Queue capacities: provable upper bounds on outstanding messages per
  // pair, doubled for slack (Mesh::Send CHECK-fails if these are wrong).
  //
  // elastic_cc loosens two of the static bounds. A transaction's stages
  // are per *partition*, and one CC thread can own many partitions, so a
  // single (sender, cc) pair may carry up to kMaxStages concurrent
  // releases per in-flight transaction instead of one; and misrouted
  // messages transiting the cc->cc mesh during a handoff window add up to
  // the total outstanding lock-path message count to any one pair.
  const std::size_t inflight = static_cast<std::size_t>(orthrus_.max_inflight);
  const std::size_t per_txn_msgs =
      orthrus_.elastic_cc ? static_cast<std::size_t>(kMaxStages) + 1 : 2;
  const std::size_t aq_cap = NextPowerOfTwo(2 * inflight + 4);
  const std::size_t fq_cap = NextPowerOfTwo(
      per_txn_msgs * inflight * static_cast<std::size_t>(n_exec) + 4);
  const std::size_t gq_cap =
      NextPowerOfTwo(per_txn_msgs * inflight + 4);

  // Per-receiver ring placement: a receiver's rings live on its node. The
  // vectors stay empty (and the meshes get null) when placement is off.
  std::vector<Mesh::ReceiverPlacement> cc_recv;
  std::vector<Mesh::ReceiverPlacement> exec_recv;
  std::vector<MultiMesh::ReceiverPlacement> cc_recv_multi;
  if (placement) {
    for (int c = 0; c < n_cc; ++c) {
      const int s = socket_of_worker[static_cast<std::size_t>(c)];
      cc_recv.push_back({arenas.ForNode(s), s});
      cc_recv_multi.push_back({arenas.ForNode(s), s});
    }
    for (int e = 0; e < n_exec; ++e) {
      const int s = socket_of_worker[static_cast<std::size_t>(n_cc + e)];
      exec_recv.push_back({arenas.ForNode(s), s});
    }
  }

  if (orthrus_.elastic) {
    // Shard the dynamic mesh so exec senders do not all serialize on one
    // reservation index per CC thread. 0 = adaptive: the mesh derives the
    // ring count from the registered-sender population (capped at 8 — the
    // same knee the static auto policy used: measured on the hot64 sweep,
    // contention falls off fastest up to 8 shards and extra shards past
    // that only add drain polls).
    const int shards = orthrus_.elastic_shards;
    // A shard's ring is shared by the senders hashing onto it; with
    // adaptive sharding the population of one ring is bounded only by the
    // full sender count, so the bound is the per-sender bound times that.
    const std::size_t senders_per_shard =
        shards > 0
            ? static_cast<std::size_t>((n_exec + shards - 1) / shards)
            : static_cast<std::size_t>(n_exec);
    std::size_t mcap = per_txn_msgs * inflight * senders_per_shard + 4;
    if (orthrus_.mesh_capacity_factor < 1.0) {
      // Deliberate under-provisioning (backpressure benches): sends that
      // exceed the scaled ring spin until the CC drains — never deadlock,
      // since CC threads drain this mesh unconditionally every quantum.
      mcap = static_cast<std::size_t>(static_cast<double>(mcap) *
                                      orthrus_.mesh_capacity_factor);
    }
    if (mcap < 1) mcap = 1;
    shared.exec_to_cc_multi.Reset(n_cc, NextPowerOfTwo(mcap), shards,
                                  placement ? &cc_recv_multi : nullptr);
  } else {
    shared.exec_to_cc.Reset(n_exec, n_cc, aq_cap,
                            placement ? &cc_recv : nullptr);
  }
  shared.cc_to_cc.Reset(n_cc, n_cc, fq_cap, placement ? &cc_recv : nullptr);
  shared.cc_to_exec.Reset(n_cc, n_exec, gq_cap,
                          placement ? &exec_recv : nullptr);

  runtime::WorkerPool pool(platform, options_.num_cores + loggers,
                           options_.duration_seconds, options_.rng_seed);
  for (int c = 0; c < n_cc; ++c) {
    pool.AssignRole(c, runtime::WorkerRole::kCc);
  }
  for (int e = 0; e < n_exec; ++e) {
    pool.AssignRole(n_cc + e, runtime::WorkerRole::kExec);
  }
  for (int l = 0; l < loggers; ++l) {
    pool.AssignRole(options_.num_cores + l, runtime::WorkerRole::kLogger);
  }
  if (placement) pool.SetPlacement(core_of_worker);
  runtime::DriverOptions dopts =
      MakeDriverOptions(options_, /*charge_admission=*/true);
  dopts.backpressure = orthrus_.backpressure_admission;
  dopts.backpressure_epoch_seconds = orthrus_.backpressure_epoch_seconds;

  // Elastic controller: CC thread 0 runs the reallocation epochs against
  // the exec threads' published commit counters. Constructed only in
  // elastic mode — its config CHECKs must not judge elastic_* knobs that
  // a non-elastic run never uses. elastic_cc swaps in the 2-D grid
  // controller and stands up the remappable lock space.
  std::unique_ptr<ElasticController> controller;
  std::unique_ptr<ElasticController2D> controller2d;
  // Live-lock bound for every CC lock table: each in-flight transaction
  // queues at most kMaxAccesses requests, all of which may land in one
  // table.
  const std::size_t max_live_locks = static_cast<std::size_t>(n_exec) *
                                     inflight *
                                     static_cast<std::size_t>(kMaxAccesses);
  lock::HashRing ring(std::max(n_cc, 1));
  SpaceMap space;
  hal::Cycles epoch_cycles = 0;
  if (orthrus_.elastic) {
    shared.exec_ctxs.reserve(static_cast<std::size_t>(n_exec));
    for (int e = 0; e < n_exec; ++e) {
      shared.exec_ctxs.push_back(&pool.worker(n_cc + e));
    }
    epoch_cycles = static_cast<hal::Cycles>(orthrus_.elastic_epoch_seconds *
                                            platform->CyclesPerSecond());
    ORTHRUS_CHECK(epoch_cycles > 0);
  }
  if (orthrus_.elastic_cc) {
    ElasticController2D::Config ec;
    ec.min_cc = orthrus_.elastic_min_cc;
    ec.max_cc = n_cc;
    ec.min_exec = orthrus_.elastic_min_exec;
    ec.max_exec = n_exec;
    ec.exec_step = orthrus_.elastic_step;
    ec.initial_exec = orthrus_.elastic_initial_exec;
    ec.tolerance = orthrus_.elastic_tolerance;
    // lint:allow-alloc setup
    controller2d = std::make_unique<ElasticController2D>(ec);
    const ElasticController2D::Target t0 = controller2d->target();
    shared.exec_gate.SetTarget(t0.exec);
    shared.cc_gate.SetTarget(t0.cc);
    // One router slot per worker (CC threads then exec threads); shards
    // start under the initial map so the first quantum claims nothing.
    space.Reset(n_parts, ring.OwnersFor(n_parts, t0.cc), n_cc + n_exec,
                [max_live_locks](int) {
                  // lint:allow-alloc setup: shards built before the run
                  return std::make_unique<CcShard>(max_live_locks);
                });
    shared.space = &space;
    shared.ring = &ring;
  } else if (orthrus_.elastic) {
    ElasticController::Config ec;
    ec.min_active = orthrus_.elastic_min_exec;
    ec.max_active = n_exec;
    ec.initial = orthrus_.elastic_initial_exec > 0
                     ? orthrus_.elastic_initial_exec
                     : n_exec;
    ec.step = orthrus_.elastic_step;
    ec.tolerance = orthrus_.elastic_tolerance;
    // lint:allow-alloc setup
    controller = std::make_unique<ElasticController>(ec);
    shared.exec_gate.SetTarget(controller->target());
  }

  std::vector<std::unique_ptr<CcThread>> cc_threads;
  std::vector<std::unique_ptr<ExecThread>> exec_threads;
  for (int c = 0; c < n_cc; ++c) {
    cc_threads.push_back(std::make_unique<CcThread>(  // lint:allow-alloc setup
        c, &shared, &pool.worker(c).stats, max_live_locks,
        c == 0 ? controller.get() : nullptr,
        c == 0 ? controller2d.get() : nullptr, epoch_cycles));
  }
  for (int e = 0; e < n_exec; ++e) {
    hal::SlabArena* tcb_arena =
        placement ? arenas.ForNode(
                        socket_of_worker[static_cast<std::size_t>(n_cc + e)])
                  : nullptr;
    // lint:allow-alloc setup
    exec_threads.push_back(std::make_unique<ExecThread>(
        e, &shared, db, workload, &pool.worker(n_cc + e), dopts,
        orthrus_.max_inflight, tcb_arena));
  }

  for (int c = 0; c < n_cc; ++c) {
    CcThread* t = cc_threads[c].get();
    pool.Spawn(c, [t](runtime::WorkerContext&) { t->Main(); });
  }
  for (int e = 0; e < n_exec; ++e) {
    ExecThread* t = exec_threads[e].get();
    pool.Spawn(n_cc + e, [t](runtime::WorkerContext&) { t->Main(); });
  }
  for (int l = 0; l < loggers; ++l) {
    pool.Spawn(options_.num_cores + l,
               [this, l](runtime::WorkerContext& ctx) {
                 options_.wal->RunLogger(l, &ctx);
               });
  }

  pool.RunWorkers();
  if (options_.wal != nullptr) {
    ORTHRUS_CHECK_MSG(options_.wal->MeshBacklogRaw() == 0,
                      "wal fragments stranded in the mesh after shutdown");
  }

  // Consistency: every queue fully drained, every elastic sender retired,
  // and — across any number of partition handoffs — every lock released
  // and erased (the shard-resident held counts and tables survive
  // ownership moves exactly). The thread-local tables are checked by their
  // CC threads on exit.
  ORTHRUS_CHECK(shared.exec_to_cc.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.exec_to_cc_multi.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.cc_to_cc.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.cc_to_exec.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.exec_to_cc_multi.ActiveSendersRaw() == 0);
  if (orthrus_.elastic_cc) {
    for (int p = 0; p < n_parts; ++p) {
      ORTHRUS_CHECK_MSG(space.shard(p)->held == 0,
                        "lock-space shard torn down with locks held");
      ORTHRUS_CHECK_MSG(space.shard(p)->locks.used() == 0,
                        "lock-space shard torn down with live locks");
      WorkerStats& cc0 = pool.worker(0).stats;
      cc0.cc_live_locks_max = std::max<std::uint64_t>(
          cc0.cc_live_locks_max, space.shard(p)->locks.high_water());
      ORTHRUS_CHECK_MSG(space.ShardOwnerRaw(p) <
                            static_cast<std::uint64_t>(n_cc),
                        "lock-space shard owned by an invalid CC slot");
    }
  }

  reallocations_ = shared.reallocations.RawLoad();
  cc_reallocations_ = shared.cc_reallocations.RawLoad();
  if (controller2d != nullptr) {
    final_exec_target_ = controller2d->target().exec;
    final_cc_target_ = controller2d->target().cc;
    steady_state_throughput_ =
        controller2d->hold_throughput() * platform->CyclesPerSecond();
  } else {
    final_exec_target_ =
        controller != nullptr ? controller->target() : n_exec;
    final_cc_target_ = n_cc;
    // The controller's hold EWMA is in commits per cycle (rate-normalized
    // epoch samples); scale to commits per second for reporting.
    steady_state_throughput_ = controller != nullptr
                                   ? controller->hold_throughput() *
                                         platform->CyclesPerSecond()
                                   : 0.0;
  }

  return pool.Finalize();
}

}  // namespace orthrus::engine
