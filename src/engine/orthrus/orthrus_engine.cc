#include "engine/orthrus/orthrus_engine.h"

#include <array>
#include <memory>
#include <vector>

#include "engine/orthrus/cc_lock_table.h"
#include "engine/orthrus/stages.h"
#include "hal/hal.h"
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
// bits [3, 9), so the receiving CC thread goes straight to its stage.
// TCBs are 512-byte aligned to free those bits.
enum MsgTag : std::uint64_t {
  kAcquire = 0,    // exec->CC or CC->CC: acquire locks for cur_stage
  kRelease = 1,    // exec->CC: release one stage's locks of tcb
  kGrant = 2,      // CC->exec: all stages granted, execute
  kAck = 3,        // CC->exec: release processed
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

// Release message: the stage index travels in the low alignment bits.
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

// One lock request. Each transaction's requests live inline in its TCB
// (index = access index), so the CC threads never allocate request nodes.
struct CcRequest {
  Tcb* tcb = nullptr;
  CcRequest* next = nullptr;
  CcRequest* prev = nullptr;
  // The access's (table, key), copied at acquire so a release finds its
  // lock without reading the access array, whose lines the exec thread
  // owns again once the grant returns.
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

  // CC-side state, starting on a line of its own so that CC writes never
  // share a cache line with the exec thread's bookkeeping above.
  // `pending` counts the ungranted locks of the stage in progress. The
  // request nodes are one per access; each stage's slice belongs to the
  // CC thread owning that stage's partition from acquire until release.
  alignas(kCacheLineSize) std::uint32_t pending = 0;
  std::array<CcRequest, kMaxAccesses> inline_reqs{};
};

// ------------------------------------------------------- FIFO lock queue

// Fills `r` for access `a` of `tcb` and appends it to `lock`'s FIFO queue.
// Returns whether `r` is granted at once: an exclusive request on an empty
// queue, a shared one while no exclusive request is queued.
bool Enqueue(CcLock* lock, CcRequest* r, Tcb* tcb, const Access& a) {
  r->tcb = tcb;
  r->key = a.key;
  r->table = a.table;
  r->mode = a.mode;
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
  return grantable;
}

void Unlink(CcLock* lock, CcRequest* r) {
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

// Removes `r` from its lock in `locks`. The lock is erased when its queue
// empties; otherwise the queue's newly compatible prefix is granted, with
// `on_grant(request)` called for each. The lock is found again by its
// (table, key) because an earlier Erase may have moved it; `on_grant` must
// leave `locks` unchanged, so the lock stays put for the whole sweep.
template <typename OnGrant>
void Release(CcLockTable* locks, CcRequest* r, OnGrant on_grant) {
  CcLock* lock = locks->Find(r->table, r->key);
  ORTHRUS_DCHECK(lock != nullptr);
  Unlink(lock, r);
  if (lock->head == nullptr) {
    locks->Erase(lock);
    return;
  }
  bool x_seen = false;
  for (CcRequest* f = lock->head; f != nullptr; f = f->next) {
    if (!f->granted) {
      const bool grantable =
          f->mode == LockMode::kExclusive ? f == lock->head : !x_seen;
      if (!grantable) break;
      f->granted = true;
      on_grant(f);
    }
    if (f->mode == LockMode::kExclusive) x_seen = true;
  }
}

// --------------------------------------------------------- shared state

using Mesh = mp::QueueMesh<std::uint64_t>;

// State every thread of one run shares. Fields without an initializer are
// copied from the options by OrthrusEngine::Run before any thread starts;
// they carry no defaults of their own, so the options are their one source
// of truth.
struct Shared {
  int n_cc;
  int n_exec;

  // Queue meshes, indexed (sender, receiver).
  Mesh exec_to_cc;  // (exec, cc)  acquire + release
  Mesh cc_to_cc;    // (cc, cc)    forward
  Mesh cc_to_exec;  // (cc, exec)  grant / ack

  // Exec threads that have left Main; see CcThread::RunDrained.
  hal::Atomic<std::uint64_t> execs_done{0};

  // Durability (null = off): each exec thread owns wal producer slot
  // exec_id; logger workers ride above the CC/exec cores.
  wal::GroupCommitLog* wal;
};

// ------------------------------------------------------------ CC thread

class CcThread {
 public:
  CcThread(int cc_id, Shared* shared, WorkerStats* stats,
           std::size_t max_live_locks)
      : cc_id_(cc_id), shared_(shared), stats_(stats), locks_(max_live_locks) {}

  // `start` is the worker's begin reading (WorkerPool::Spawn).
  void Main(hal::Cycles start) {
    // Polling cached-empty queues costs L1 hits; a small cap keeps grant
    // latency low while still bounding event rates when truly idle.
    hal::IdleBackoff idle(128);
    // One clock read per loop iteration: the span since the previous read
    // is locking time when that iteration's drain delivered messages, and
    // waiting time otherwise (empty polls, idle backoff).
    SpanClock clock(stats_, start);
    while (true) {
      // Read the termination predicate *before* draining: if it was true
      // before a drain that found nothing, no message can arrive later.
      const bool maybe_done = RunDrained();
      if (DrainOnce()) {
        clock.Mark(TimeCategory::kLocking);
        idle.Reset();
        continue;
      }
      if (maybe_done) {
        clock.Mark(TimeCategory::kWaiting);
        ORTHRUS_CHECK_MSG(held_ == 0, "CC exiting with locks held");
        ORTHRUS_CHECK_MSG(locks_.used() == 0,
                          "CC exiting with live locks in its table");
        stats_->cc_live_locks_max = locks_.high_water();
        break;
      }
      idle.Idle();
      clock.Mark(TimeCategory::kWaiting);
    }
  }

 private:
  // True once every exec thread has left Main, which alone means that no
  // message is still in flight to any CC thread:
  // - an exec thread leaves Main only at inflight_ == 0, i.e. after the
  //   last ack of every transaction it admitted;
  // - a CC sends kAck only after it has processed the release;
  // - a release is a transaction's last message to the CC threads, because
  //   forwards happen before the grant.
  bool RunDrained() {
    return shared_->execs_done.load() ==
           static_cast<std::uint64_t>(shared_->n_exec);
  }

  bool DrainOnce() {
    const auto handle = [this](std::uint64_t w) { Handle(w); };
    std::size_t n = shared_->exec_to_cc.Drain(cc_id_, handle);
    n += shared_->cc_to_cc.Drain(cc_id_, handle);
    if (n == 0) return false;
    stats_->cc_batches++;
    stats_->cc_batch_msgs += n;
    return true;
  }

  void Handle(std::uint64_t word) {
    Tcb* tcb = DecodeTcb(word);
    switch (DecodeTag(word)) {
      case kAcquire:
        if (AcquireStage(tcb)) Advance(tcb);
        break;
      case kRelease:
        ProcessRelease(tcb, word);
        break;
      default:
        ORTHRUS_CHECK_MSG(false, "unexpected message at CC thread");
    }
  }

  // Enqueues the current stage's lock requests into this thread's table.
  // Returns true when every lock was granted immediately; otherwise
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
    ORTHRUS_DCHECK(stage.part == cc_id_);
    std::uint32_t pending = 0;
    for (std::uint16_t i = stage.begin; i < stage.end; ++i) {
      const Access& a = tcb->txn.accesses[i];
      hal::ConsumeCycles(kCcOpCycles);
      if (!Enqueue(locks_.FindOrInsert(a.table, a.key), &tcb->inline_reqs[i],
                   tcb, a)) {
        pending++;
        stats_->lock_waits++;
      }
      held_++;
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

  void ProcessRelease(Tcb* tcb, std::uint64_t word) {
    ReleaseStage(tcb, tcb->stages[DecodeStage(word)]);
    // Release requests are satisfied and acknowledged immediately
    // (Section 3.1).
    shared_->cc_to_exec.Send(cc_id_, tcb->exec_id, Encode(tcb, kAck));
    stats_->messages_sent++;
  }

  // Releases one stage's requests, granting unblocked followers and
  // erasing locks left with no queued request. A granted transaction's
  // Advance only sends a message, so the table stays unchanged.
  void ReleaseStage(Tcb* tcb, const Stage& stage) {
    ORTHRUS_DCHECK(stage.part == cc_id_);
    // Concurrent releases of *other* stages are legal; these tags cover
    // only this stage's entry and request slice.
    hal::RaceCheck(&stage, sizeof(stage), /*is_write=*/false,
                   "orthrus.tcb.stages");
    RaceCheckRequests(tcb, stage);
    for (std::uint16_t i = stage.begin; i < stage.end; ++i) {
      hal::ConsumeCycles(kCcOpCycles);
      Release(&locks_, &tcb->inline_reqs[i], [this](CcRequest* r) {
        Tcb* t = r->tcb;
        hal::RaceCheck(&t->pending, sizeof(t->pending), /*is_write=*/true,
                       "orthrus.tcb.pending");
        ORTHRUS_DCHECK(t->pending > 0);
        if (--t->pending == 0) Advance(t);
      });
      ORTHRUS_DCHECK(held_ > 0);
      held_--;
    }
  }

  // All locks of tcb's current stage are granted: forward to the next CC
  // of the chain (Section 3.3), or grant the last stage to the execution
  // thread.
  void Advance(Tcb* tcb) {
    const int next = tcb->cur_stage + 1;
    if (next >= tcb->n_stages) {
      shared_->cc_to_exec.Send(cc_id_, tcb->exec_id, Encode(tcb, kGrant));
      stats_->messages_sent++;
      return;
    }
    hal::RaceCheck(&tcb->cur_stage, sizeof(tcb->cur_stage), /*is_write=*/true,
                   "orthrus.tcb.stage");
    tcb->cur_stage = next;
    shared_->cc_to_cc.Send(cc_id_, tcb->stages[next].part,
                           Encode(tcb, kAcquire));
    stats_->messages_sent++;
  }

  int cc_id_;
  Shared* shared_;
  WorkerStats* stats_;
  CcLockTable locks_;
  // Requests enqueued and not yet released.
  std::uint64_t held_ = 0;
};

// ----------------------------------------------------------- exec thread

class ExecThread {
 public:
  ExecThread(int exec_id, Shared* shared, storage::Database* db,
             const workload::Workload& workload,
             runtime::WorkerContext* worker,
             const runtime::DriverOptions& driver_options, int max_inflight)
      : exec_id_(exec_id),
        shared_(shared),
        db_(db),
        worker_(worker),
        stats_(&worker->stats),
        source_(workload.MakeSource(shared->n_cc + exec_id)),
        admission_(driver_options, db, source_.get(), worker),
        clock_(stats_, 0) {
    tcbs_.reserve(static_cast<std::size_t>(max_inflight));
    for (int i = 0; i < max_inflight; ++i) {
      // lint:allow-alloc setup: in-flight window built before the run
      Tcb* t = tcbs_.emplace_back(std::make_unique<Tcb>()).get();
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
  // The thread reads the clock only through clock_, so each of its cycles
  // is charged once. A commit takes four readings: Admit's post-plan stamp,
  // the ends of Dispatch's resolve and send, and the end of the logic.
  void Main() {
    clock_ = SpanClock(stats_, worker_->clock.start);
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
      // Durability quantum maintenance: flush staged fragments, publish
      // the epoch heartbeat, acknowledge matured group commits.
      if (wal_ != nullptr) wal_->Poll();
      bool progress = PollGrants();
      progress |= IssueNew();
      if (progress) {
        idle.Reset();
        continue;
      }
      // Nothing to do. One reading closes the empty poll as waiting and
      // gates the exit; a second closes the idle backoff.
      const hal::Cycles now = clock_.Mark(TimeCategory::kWaiting);
      if (Stopping(now) && inflight_ == 0 && WalDrained()) break;
      idle.Idle();
      clock_.Mark(TimeCategory::kWaiting);
    }
    if (wal_ != nullptr) wal_->Retire();
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

  bool PollGrants() {
    const std::size_t n = shared_->cc_to_exec.Drain(
        exec_id_,
        [this](std::uint64_t w) {
          switch (DecodeTag(w)) {
            case kGrant:
              Execute(DecodeTcb(w));
              break;
            case kAck:
              OnAck(DecodeTcb(w));
              break;
            default:
              ORTHRUS_CHECK_MSG(false, "unexpected message at exec thread");
          }
        });
    return n != 0;
  }

  // Reads no clock of its own: the gate takes the cursor's last reading,
  // which is the end of the previous stage (after a dispatch, the end of
  // its send). Admit's post-plan stamp closes the admission span.
  bool IssueNew() {
    bool issued = false;
    while (!free_slots_.empty()) {
      if (Stopping(clock_.last())) break;
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
      admission_.Admit(&tcb->txn, &clock_);
      if (wal_ != nullptr) wal_uncaptured_++;
      tcb->replan_pending = false;
      Dispatch(tcb);
      issued = true;
    }
    return issued;
  }

  // Resolves and prefetches every access's row, sorts the accesses into
  // CC-thread order and starts the acquisition chain. Two readings: the end
  // of the resolution closes the span since the cursor's last reading
  // (Admit's stamp, or an ack's processing on a replan) as kExecution, and
  // the end of the send closes the stage building and send as kLocking.
  //
  // Resolution is planned data access: the index is read-only during a
  // run, so a row's address does not depend on its lock, and the misses
  // overlap the lock requests instead of lengthening lock hold time.
  // Before the grant only pointers are stored and prefetch hints issued;
  // row contents are never touched. It sits after Admit's stamp, so
  // commit latency includes it, and before the first acquire, after which
  // the CC threads read these Access lines.
  void Dispatch(Tcb* tcb) {
    Txn& t = tcb->txn;
    ORTHRUS_CHECK(t.accesses.size() <= kMaxAccesses);
    runtime::ResolveRows(db_, &t.accesses);
    clock_.Mark(TimeCategory::kExecution);
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
    shared_->exec_to_cc.Send(exec_id_, tcb->stages[0].part,
                             Encode(tcb, kAcquire));
    stats_->messages_sent++;
    clock_.Mark(TimeCategory::kLocking);
  }

  // All locks granted: run the procedure on the rows Dispatch resolved and
  // prefetched, then release everything. One clock reading, at the end of
  // the logic: it closes the span since the previous mark (the grant's
  // delivery included) as kExecution and stamps the commit latency. The
  // release sends fall into the span that the thread's next mark closes.
  void Execute(Tcb* tcb) {
    Txn& t = tcb->txn;
    txn::ExecContext ec{db_, stats_, /*charge_cycles=*/true};
    const bool ok = t.logic->Run(&t, ec);
    const hal::Cycles end = clock_.Mark(TimeCategory::kExecution);

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
        stats_->txn_latency.Record(end - t.start_cycles);
      }
    } else {
      tcb->replan_pending = true;  // stale OLLP estimate: re-plan after acks
    }

    hal::RaceCheck(&tcb->pending_acks, sizeof(tcb->pending_acks),
                   /*is_write=*/true, "orthrus.tcb.acks");
    // One release per stage, to the stage's CC thread, naming the stage.
    tcb->pending_acks = tcb->n_stages;
    for (int s = 0; s < tcb->n_stages; ++s) {
      shared_->exec_to_cc.Send(exec_id_, tcb->stages[s].part,
                               EncodeRelease(tcb, s));
      stats_->messages_sent++;
    }
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
        // slot stays occupied; Dispatch counts it in flight again.
        inflight_--;
        Dispatch(tcb);
        return;
      }
    }
    inflight_--;
    free_slots_.push_back(tcb->slot);
  }

  int exec_id_;
  Shared* shared_;
  storage::Database* db_;
  runtime::WorkerContext* worker_;
  WorkerStats* stats_;
  std::unique_ptr<workload::TxnSource> source_;
  runtime::TxnAdmission admission_;
  // The thread's clock cursor; Main starts it at the worker's begin reading.
  SpanClock clock_;
  std::vector<std::unique_ptr<Tcb>> tcbs_;
  std::vector<int> free_slots_;
  int inflight_ = 0;
  // Dispatch's sort buffer: accesses paired with their partitions.
  std::array<PartedAccess, kMaxAccesses> sort_scratch_;
  // Durability (null when off): producer owned by Main's frame — it must
  // be constructed and destroyed on-core. wal_uncaptured_ counts admitted
  // transactions that have not reached Capture yet (see IssueNew).
  wal::Producer* wal_ = nullptr;
  std::uint64_t wal_uncaptured_ = 0;
};

}  // namespace

OrthrusEngine::OrthrusEngine(EngineOptions options, OrthrusOptions orthrus)
    : options_(options), orthrus_(orthrus) {
  ORTHRUS_CHECK_MSG(orthrus_.num_cc >= 1,
                    "ORTHRUS needs at least one CC thread");
  ORTHRUS_CHECK_MSG(options_.num_cores > orthrus_.num_cc,
                    "ORTHRUS needs at least one exec thread: num_cores must "
                    "exceed num_cc");
  ORTHRUS_CHECK_MSG(orthrus_.max_inflight >= 1,
                    "max_inflight must be at least 1");
}

std::string OrthrusEngine::name() const { return "orthrus"; }

RunResult OrthrusEngine::Run(hal::Platform* platform, storage::Database* db,
                             const workload::Workload& workload) {
  const int n_cc = orthrus_.num_cc;
  const int n_exec = options_.num_cores - n_cc;
  ORTHRUS_CHECK_MSG(db->partitioner().n == n_cc,
                    "ORTHRUS needs the database partitioner configured "
                    "with one partition per CC thread");

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

  Shared shared;
  shared.n_cc = n_cc;
  shared.n_exec = n_exec;
  shared.wal = options_.wal;

  // Live-lock bound for every CC lock table: each in-flight transaction
  // queues at most kMaxAccesses requests, all of which may land in one
  // table.
  const std::size_t inflight = static_cast<std::size_t>(orthrus_.max_inflight);
  const std::size_t max_live_locks = static_cast<std::size_t>(n_exec) *
                                     inflight *
                                     static_cast<std::size_t>(kMaxAccesses);

  // Queue capacities: provable upper bounds on outstanding messages per
  // pair, doubled for slack (Mesh::Send CHECK-fails if these are wrong).
  // A transaction has at most two messages outstanding on any one pair.
  constexpr std::size_t per_txn_msgs = 2;
  const std::size_t aq_cap = NextPowerOfTwo(2 * inflight + 4);
  const std::size_t fq_cap = NextPowerOfTwo(
      per_txn_msgs * inflight * static_cast<std::size_t>(n_exec) + 4);
  const std::size_t gq_cap =
      NextPowerOfTwo(per_txn_msgs * inflight + 4);

  shared.exec_to_cc.Reset(n_exec, n_cc, aq_cap);
  shared.cc_to_cc.Reset(n_cc, n_cc, fq_cap);
  shared.cc_to_exec.Reset(n_cc, n_exec, gq_cap);

  runtime::WorkerPool pool(platform, options_.num_cores + loggers,
                           options_.duration_seconds);
  const runtime::DriverOptions dopts = MakeDriverOptions(options_);

  std::vector<std::unique_ptr<CcThread>> cc_threads;
  std::vector<std::unique_ptr<ExecThread>> exec_threads;
  for (int c = 0; c < n_cc; ++c) {
    cc_threads.push_back(std::make_unique<CcThread>(  // lint:allow-alloc setup
        c, &shared, &pool.worker(c).stats, max_live_locks));
  }
  for (int e = 0; e < n_exec; ++e) {
    // lint:allow-alloc setup
    exec_threads.push_back(std::make_unique<ExecThread>(
        e, &shared, db, workload, &pool.worker(n_cc + e), dopts,
        orthrus_.max_inflight));
  }

  for (int c = 0; c < n_cc; ++c) {
    CcThread* t = cc_threads[c].get();
    pool.Spawn(c, [t](runtime::WorkerContext& ctx) {
      t->Main(ctx.clock.start);
    });
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

  // Consistency: every queue fully drained. Every lock was released and
  // erased: each CC thread checks its own table on exit.
  ORTHRUS_CHECK(shared.exec_to_cc.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.cc_to_cc.SizeRawTotal() == 0);
  ORTHRUS_CHECK(shared.cc_to_exec.SizeRawTotal() == 0);

  return pool.Finalize();
}

}  // namespace orthrus::engine
