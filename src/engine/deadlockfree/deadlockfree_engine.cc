#include "engine/deadlockfree/deadlockfree_engine.h"

#include <algorithm>
#include <memory>

#include "runtime/locking_strategy.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of deadlock-free locking: resolve the pre-declared access set,
// sort it into the canonical global order, acquire everything (FIFO wait
// via runtime::LockingStrategy with a null deadlock policy — deadlock
// freedom by construction), then execute with all locks held.
class DeadlockFreeStrategy final : public runtime::LockingStrategy {
 public:
  DeadlockFreeStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
                       storage::Database* db, WorkerStats* st)
      : LockingStrategy(lock_table, ctx, /*policy=*/nullptr, st), db_(db) {}

  // Timed by phase, as 2PL: from the caller's reading `t0`, one reading at
  // the end of each of resolve | acquire | logic | release. The sort is
  // charged with the resolve phase.
  runtime::Attempt TryExecute(txn::Txn* t, hal::Cycles t0) override {
    std::sort(t->accesses.begin(), t->accesses.end(), txn::AccessKeyOrder());

    // Phase 1: resolve and prefetch every row before the first lock.
    ResolveRows(db_, &t->accesses);
    const hal::Cycles t1 = hal::Now();
    stats()->Add(TimeCategory::kExecution, t1 - t0);

    // Phase 2: acquire everything; the waits inside the span are kWaiting.
    const hal::Cycles waited_before = WaitedSoFar();
    for (const txn::Access& a : t->accesses) AcquireOrdered(a);
    const hal::Cycles t2 = hal::Now();
    ChargeAcquirePhase(t2 - t1, waited_before, /*modelled=*/0);

    // Phase 3: execute with all locks held.
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    const hal::Cycles t3 = hal::Now();
    stats()->Add(TimeCategory::kExecution, t3 - t2);

    // Durability: capture redo images before the locks drop.
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    const hal::Cycles end = ReleaseAllLocks(t3);
    return {ok ? runtime::TxnOutcome::kCommitted
               : runtime::TxnOutcome::kMismatch,
            end};
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
