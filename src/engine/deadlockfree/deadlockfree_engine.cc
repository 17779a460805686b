#include "engine/deadlockfree/deadlockfree_engine.h"

#include <algorithm>
#include <memory>

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
  lock::LockTable::Config lt_config;
  lt_config.max_workers = options_.num_cores;
  lock::LockTable lock_table(lt_config);
  auto make_strategy = [&](runtime::WorkerContext& w) {
    return std::make_unique<DeadlockFreeStrategy>(
        &lock_table, lock_table.RegisterWorker(w.worker_id, &w.stats), db,
        &w.stats);
  };
  return RunThreadPerTxn(options_, platform, db, workload, make_strategy);
}

}  // namespace orthrus::engine
