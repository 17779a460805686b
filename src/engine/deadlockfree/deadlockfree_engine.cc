#include "engine/deadlockfree/deadlockfree_engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/locking_strategy.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of deadlock-free locking: sort the pre-declared access set
// into the canonical global order, acquire everything (FIFO wait via
// runtime::LockingStrategy with a null deadlock policy — deadlock freedom
// by construction), then execute with all locks held.
class DeadlockFreeStrategy final : public runtime::LockingStrategy {
 public:
  DeadlockFreeStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
                       storage::Database* db, WorkerStats* st)
      : LockingStrategy(lock_table, ctx, /*policy=*/nullptr, st), db_(db) {}

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    std::sort(t->accesses.begin(), t->accesses.end(), txn::AccessKeyOrder());

    // Phase 1: acquire everything, charged as one kLocking span (waits
    // inside it are additionally charged to kWaiting by the lock table).
    hal::Cycles t0 = hal::Now();
    for (const txn::Access& a : t->accesses) AcquireOrdered(a);
    stats()->Add(TimeCategory::kLocking, hal::Now() - t0);

    // Phase 2: execute with all locks held.
    t0 = hal::Now();
    ResolveRows(db_, &t->accesses);
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    stats()->Add(TimeCategory::kExecution, hal::Now() - t0);

    // Durability: capture redo images before the locks drop.
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    ReleaseAllLocks();
    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  storage::Database* db_;
};

}  // namespace

RunResult DeadlockFreeEngine::Run(hal::Platform* platform,
                                  storage::Database* db,
                                  const workload::Workload& workload) {
  const int n = options_.num_cores;
  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  lock::LockTable::Config lt_config;
  lt_config.num_buckets = options_.lock_buckets;
  lt_config.max_lock_heads = options_.max_lock_heads;
  lt_config.max_workers = n;
  lock::LockTable lock_table(lt_config);

  runtime::WorkerPool pool(platform, n + loggers, options_.duration_seconds,
                           options_.rng_seed);
  std::vector<lock::WorkerLockCtx*> ctxs(n);
  for (int w = 0; w < n; ++w) {
    ctxs[w] = lock_table.RegisterWorker(w, &pool.worker(w).stats);
  }

  const runtime::DriverOptions dopts = MakeDriverOptions(options_);
  for (int w = 0; w < n; ++w) {
    pool.Spawn(w, [this, db, &workload, &lock_table, &ctxs,
                   &dopts](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      DeadlockFreeStrategy strategy(&lock_table, ctxs[ctx.worker_id], db,
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
