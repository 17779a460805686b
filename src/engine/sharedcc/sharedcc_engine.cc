#include "engine/sharedcc/sharedcc_engine.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/orthrus/cc_lock_table.h"
#include "runtime/txn_driver.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

using txn::Access;
using txn::LockMode;

constexpr int kMaxAccesses = 40;  // matches the ORTHRUS TCB bound

struct ShardReq;

// Lock state for one key inside a partition shard. Plain memory: every
// access happens under the shard's latch.
struct ShardLock {
  ShardReq* head = nullptr;
  ShardReq* tail = nullptr;
  std::uint32_t queued_total = 0;
  std::uint32_t queued_x = 0;
};

// A worker's request node. Queue links are latch-protected; `granted` is
// the one cross-core word read outside the latch — the waiter spins on it
// locally (the paper's local-spinning FIFO handoff) and the releaser's
// latched grant sweep flips it with a release store. hal::Atomic, not raw
// std::atomic: the handoff line transfer is a real coherence cost the
// simulator must charge, and the store/load pair is the happens-before
// edge the race detector checks row accesses against.
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

// One lock-space partition: a latch and its local lock queues. Node-based
// map, so ShardLock addresses are stable while requests point at them.
struct alignas(kCacheLineSize) Shard {
  hal::SpinLock latch;
  std::unordered_map<LockKey, ShardLock, LockKeyHash> locks
      ORTHRUS_GUARDED_BY(latch);
};

// One attempt: sort the pre-declared access set by (partition, table,
// key), acquire each lock from its partition shard (FIFO wait on
// conflict; ordered acquisition makes waits deadlock-free), execute with
// everything held, release with a latched grant sweep per shard visit.
class SharedCcStrategy final : public runtime::ExecutionStrategy {
 public:
  SharedCcStrategy(std::vector<Shard>* shards,
                   const storage::Partitioner* part, storage::Database* db,
                   WorkerStats* stats)
      : shards_(shards), part_(part), db_(db), stats_(stats) {}

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    ORTHRUS_CHECK(t->accesses.size() <= kMaxAccesses);
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

    t0 = hal::Now();
    ReleaseAll();
    stats_->Add(TimeCategory::kLocking, hal::Now() - t0);
    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  void Acquire(const Access& a) {
    const int p = part_->PartOf(a.key);
    Shard& s = (*shards_)[static_cast<std::size_t>(p)];
    ShardReq* r = &reqs_[n_held_++];
    r->next = r->prev = nullptr;
    r->shard = p;
    r->mode = a.mode;
    s.latch.Lock();
    hal::ConsumeCycles(kCcOpCycles);
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
      hal::ConsumeCycles(kCcOpCycles);
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
      // Grant the now-leading compatible run (strict FIFO, no bypassing).
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
  WorkerStats* stats_;
  ShardReq reqs_[kMaxAccesses];
  int n_held_ = 0;
};

}  // namespace

RunResult SharedCcEngine::Run(hal::Platform* platform, storage::Database* db,
                              const workload::Workload& workload) {
  const int n = options_.num_cores;
  const int n_shards = db->partitioner().n;
  ORTHRUS_CHECK(n_shards >= 1);
  std::vector<Shard> shards(static_cast<std::size_t>(n_shards));

  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  runtime::WorkerPool pool(platform, n + loggers, options_.duration_seconds,
                           options_.rng_seed);
  const runtime::DriverOptions dopts = MakeDriverOptions(options_);
  for (int w = 0; w < n; ++w) {
    pool.Spawn(w, [this, db, &workload, &shards,
                   &dopts](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      SharedCcStrategy strategy(&shards, &db->partitioner(), db,
                                &ctx.stats);
      runtime::TxnDriver driver(dopts, db, source.get(), &strategy, &ctx);
      std::unique_ptr<wal::Producer> producer;
      if (options_.wal != nullptr) {
        producer = std::make_unique<wal::Producer>(options_.wal,
                                                   ctx.worker_id, &ctx);
        strategy.set_wal(producer.get());
        driver.set_wal(producer.get());
      }
      driver.Run();
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
