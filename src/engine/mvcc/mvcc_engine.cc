#include "engine/mvcc/mvcc_engine.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "runtime/txn_driver.h"
#include "storage/epoch_clock.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

using txn::Access;
using txn::LockMode;

constexpr int kMaxAccesses = 40;  // matches the ORTHRUS TCB bound

struct ShardReq;

// Lock state for one key inside a partition shard. Plain memory: every
// access happens under the shard's latch. (Same machinery as
// engine/sharedcc — the write path *is* shared-CC, plus version installs.)
struct ShardLock {
  ShardReq* head = nullptr;
  ShardReq* tail = nullptr;
  std::uint32_t queued_total = 0;
  std::uint32_t queued_x = 0;
};

// A worker's request node; `granted` is the local-spin FIFO handoff word
// (see sharedcc_engine.cc for why it is a modeled atomic).
struct ShardReq {
  hal::Atomic<int> granted;
  ShardReq* next = nullptr;
  ShardReq* prev = nullptr;
  ShardLock* lock = nullptr;
  int shard = -1;
  LockMode mode = LockMode::kShared;
};

struct LockKey {
  std::uint32_t table;
  std::uint64_t key;
  bool operator==(const LockKey& o) const {
    return table == o.table && key == o.key;
  }
};

struct LockKeyHash {
  std::size_t operator()(const LockKey& k) const {
    std::uint64_t h = (k.key ^ (static_cast<std::uint64_t>(k.table) << 56)) *
                      0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct alignas(kCacheLineSize) Shard {
  hal::SpinLock latch;
  std::unordered_map<LockKey, ShardLock, LockKeyHash> locks
      ORTHRUS_GUARDED_BY(latch);
};

// Writers: sort by (partition, table, key), acquire from the partition
// shards (ordered, deadlock-free), execute, install the committed
// post-images into the version pairs, release. Classified read-only
// transactions skip all of that: one read-epoch load, then a lock-free
// versioned copy per row. Every wait loop in this strategy publishes the
// worker's epoch heartbeats — that is what keeps the read epoch and the
// reader floor advancing (and the floor spin in Table::InstallVersion
// finite) no matter which worker is stuck behind which.
class MvccStrategy final : public runtime::ExecutionStrategy {
 public:
  MvccStrategy(std::vector<Shard>* shards, const storage::Partitioner* part,
               storage::Database* db, hal::Cycles op_cycles, int hb_slot,
               bool wal_ticks, WorkerStats* stats)
      : shards_(shards),
        part_(part),
        db_(db),
        clock_(db->epoch_clock()),
        op_cycles_(op_cycles),
        hb_slot_(hb_slot),
        wal_ticks_(wal_ticks),
        stats_(stats) {
    std::uint32_t max_stride = 8;
    table_snapshot_ok_.resize(db->num_tables());
    for (std::size_t i = 0; i < db->num_tables(); ++i) {
      const storage::Table* t = db->GetTable(static_cast<std::uint32_t>(i));
      max_stride = std::max(max_stride, t->row_stride());
      // Appended rows (TPC-C inserts) materialize outside the version
      // protocol, so tables with append regions fall back to locking.
      table_snapshot_ok_[i] =
          t->versions_enabled() && !t->has_append_region();
    }
    scratch_stride_ = max_stride;
    scratch_.resize(static_cast<std::size_t>(kMaxAccesses) * max_stride);
  }

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    ORTHRUS_CHECK(t->accesses.size() <= kMaxAccesses);
    // Transaction boundary: no install or snapshot read in flight, so both
    // heartbeats may advance; tick the clock if no WAL logger does.
    Heartbeat();
    if (t->read_only && SnapshotEligible(t)) return SnapshotExecute(t);

    const storage::Partitioner& part = *part_;
    std::sort(t->accesses.begin(), t->accesses.end(),
              [&part](const Access& a, const Access& b) {
                const int pa = part.PartOf(a.key);
                const int pb = part.PartOf(b.key);
                if (pa != pb) return pa < pb;
                if (a.table != b.table) return a.table < b.table;
                return a.key < b.key;
              });

    hal::Cycles t0 = hal::Now();
    n_held_ = 0;
    for (const Access& a : t->accesses) Acquire(a);
    stats_->Add(TimeCategory::kLocking, hal::Now() - t0);

    t0 = hal::Now();
    ResolveRows(db_, &t->accesses);
    txn::ExecContext ec{db_, stats_, /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    stats_->Add(TimeCategory::kExecution, hal::Now() - t0);

    // Durability: capture redo images while every lock is still held.
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    // Version install: also under the X locks — the post-images just
    // written by the logic become the newest committed versions.
    if (ok) InstallVersions(t);

    t0 = hal::Now();
    ReleaseAll();
    stats_->Add(TimeCategory::kLocking, hal::Now() - t0);
    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  void Heartbeat() {
    clock_->PublishIdle(hb_slot_, &cache_);
    if (!wal_ticks_) clock_->MaybeTick(hal::Now());
  }

  bool SnapshotEligible(const txn::Txn* t) const {
    if (t->logic->NeedsReconnaissance()) return false;
    for (const Access& a : t->accesses) {
      if (!table_snapshot_ok_[a.table]) return false;
    }
    return true;
  }

  runtime::TxnOutcome SnapshotExecute(txn::Txn* t) {
    hal::Cycles t0 = hal::Now();
    std::uint64_t r = clock_->ReadEpoch();
    for (;;) {
      bool fresh = true;
      for (std::size_t i = 0; i < t->accesses.size(); ++i) {
        Access& a = t->accesses[i];
        ResolveRow(db_, &a);
        storage::Table* tbl = db_->GetTable(a.table);
        std::uint8_t* dst = scratch_.data() + i * scratch_stride_;
        if (!tbl->SnapshotRead(tbl->SlotOfRow(a.row), r, dst)) {
          fresh = false;
          break;
        }
        a.row = dst;
      }
      if (fresh) break;
      // A row advanced twice past `r`: abandon this attempt, publish the
      // reader heartbeat (licensing the floor to move past the abandoned
      // reads), and restart the whole read set at a fresher epoch — a
      // per-row refresh would observe mixed epochs.
      Heartbeat();
      // A stale row means writers have moved past `r`; fold the read epoch
      // forward now rather than waiting out the tick interval.
      clock_->FoldMins();
      hal::CpuRelax();
      r = clock_->ReadEpoch();
    }
    txn::ExecContext ec{db_, stats_, /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    stats_->Add(TimeCategory::kExecution, hal::Now() - t0);
    if (!ok) return runtime::TxnOutcome::kMismatch;
    if (wal_ != nullptr) {
      // Read-only commits are trivially durable (no redo), so they never
      // enter the WAL pipeline; the driver only counts commits on the
      // no-WAL path, so count here.
      stats_->committed++;
      stats_->txn_latency.Record(hal::Now() - t->start_cycles);
    }
    return runtime::TxnOutcome::kCommitted;
  }

  void InstallVersions(txn::Txn* t) {
    const std::uint64_t e = clock_->CommitEpoch();
    clock_->PublishWriter(hb_slot_, e, &cache_);
    for (Access& a : t->accesses) {
      if (a.mode != LockMode::kExclusive) continue;
      storage::Table* tbl = db_->GetTable(a.table);
      if (!tbl->versions_enabled()) continue;
      tbl->InstallVersion(tbl->SlotOfRow(a.row), e, clock_, hb_slot_,
                          &cache_);
    }
  }

  void Acquire(const Access& a) {
    const int p = part_->PartOf(a.key);
    Shard& s = (*shards_)[static_cast<std::size_t>(p)];
    ShardReq* r = &reqs_[n_held_++];
    r->next = r->prev = nullptr;
    r->shard = p;
    r->mode = a.mode;
    s.latch.Lock();
    hal::ConsumeCycles(op_cycles_);
    ShardLock& lock = s.locks[LockKey{a.table, a.key}];
    r->lock = &lock;
    const bool grantable = a.mode == LockMode::kExclusive
                               ? lock.queued_total == 0
                               : lock.queued_x == 0;
    r->prev = lock.tail;
    if (lock.tail != nullptr) {
      lock.tail->next = r;
    } else {
      lock.head = r;
    }
    lock.tail = r;
    lock.queued_total++;
    if (a.mode == LockMode::kExclusive) lock.queued_x++;
    r->granted.store(grantable ? 1 : 0);
    s.latch.Unlock();
    if (!grantable) {
      stats_->lock_waits++;
      const hal::Cycles w0 = hal::Now();
      while (r->granted.load() == 0) {
        // Keep the epoch machinery live while blocked: the lock holder
        // may be spinning on the reader floor, which needs our
        // heartbeats (and someone ticking) to advance.
        Heartbeat();
        hal::CpuRelax();
      }
      stats_->Add(TimeCategory::kWaiting, hal::Now() - w0);
    }
  }

  void ReleaseAll() {
    for (int i = 0; i < n_held_; ++i) {
      ShardReq* r = &reqs_[i];
      Shard& s = (*shards_)[static_cast<std::size_t>(r->shard)];
      s.latch.Lock();
      hal::ConsumeCycles(op_cycles_);
      ShardLock* lock = r->lock;
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
      bool x_seen = false;
      for (ShardReq* f = lock->head; f != nullptr; f = f->next) {
        if (f->granted.load() == 0) {
          const bool grantable = f->mode == LockMode::kExclusive
                                     ? f == lock->head
                                     : !x_seen;
          if (!grantable) break;
          f->granted.store(1);
        }
        if (f->mode == LockMode::kExclusive) x_seen = true;
      }
      s.latch.Unlock();
    }
    n_held_ = 0;
  }

  std::vector<Shard>* shards_;
  const storage::Partitioner* part_;
  storage::Database* db_;
  storage::EpochClock* clock_;
  hal::Cycles op_cycles_;
  int hb_slot_;
  bool wal_ticks_;
  WorkerStats* stats_;
  storage::EpochClock::PublishCache cache_;
  std::vector<bool> table_snapshot_ok_;
  std::vector<std::uint8_t> scratch_;  // snapshot staging, setup-sized
  std::uint32_t scratch_stride_ = 0;
  ShardReq reqs_[kMaxAccesses];
  int n_held_ = 0;
};

}  // namespace

RunResult MvccEngine::Run(hal::Platform* platform, storage::Database* db,
                          const workload::Workload& workload) {
  const int n = options_.num_cores;
  const int n_shards = db->partitioner().n;
  ORTHRUS_CHECK(n_shards >= 1);
  std::vector<Shard> shards(static_cast<std::size_t>(n_shards));

  // Version pairs + epoch clock, (re)seeded from the current main slabs —
  // after a WAL recovery this folds the replayed images into the snapshot
  // baseline.
  db->EnableSnapshotVersions(n, epoch_tick_cycles_);
  const bool wal_ticks = options_.wal != nullptr;
  if (wal_ticks) options_.wal->set_epoch_clock(db->epoch_clock());

  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  runtime::WorkerPool pool(platform, n + loggers, options_.duration_seconds,
                           options_.rng_seed);
  const runtime::DriverOptions dopts = MakeDriverOptions(options_);
  for (int w = 0; w < n; ++w) {
    pool.Spawn(w, [this, db, &workload, &shards, &dopts,
                   wal_ticks](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      MvccStrategy strategy(&shards, &db->partitioner(), db, cc_op_cycles_,
                            ctx.worker_id, wal_ticks, &ctx.stats);
      runtime::TxnDriver driver(dopts, db, source.get(), &strategy, &ctx);
      std::unique_ptr<wal::Producer> producer;
      if (options_.wal != nullptr) {
        producer = std::make_unique<wal::Producer>(options_.wal,
                                                   ctx.worker_id, &ctx);
        strategy.set_wal(producer.get());
        driver.set_wal(producer.get());
      }
      driver.Run();
      // Drop out of the epoch mins: a finished worker must not freeze the
      // read epoch (or the reader floor) for stragglers still installing.
      db->epoch_clock()->Retire(ctx.worker_id);
    });
  }
  for (int l = 0; l < loggers; ++l) {
    const int w = n + l;
    pool.AssignRole(w, runtime::WorkerRole::kLogger);
    pool.Spawn(w, [this, l](runtime::WorkerContext& ctx) {
      options_.wal->RunLogger(l, &ctx);
    });
  }

  RunResult result = pool.Run();
  if (options_.wal != nullptr) {
    ORTHRUS_CHECK_MSG(options_.wal->MeshBacklogRaw() == 0,
                      "wal fragments stranded in the mesh after shutdown");
  }
  return result;
}

}  // namespace orthrus::engine
