#include "engine/twopl/twopl_engine.h"

#include "runtime/locking_strategy.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of conventional dynamic 2PL: acquire each lock at the
// access's turn, do that access's share of the work while holding it, then
// run the procedure's memory effects with all locks held. The acquire /
// policy-wait / abort plumbing lives in runtime::LockingStrategy; this
// class only decides the interleaving.
class TwoPlStrategy final : public runtime::LockingStrategy {
 public:
  TwoPlStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
                lock::DeadlockPolicy* policy, storage::Database* db,
                WorkerStats* st)
      : LockingStrategy(lock_table, ctx, policy, st), db_(db) {}

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    BeginLockedAttempt(*t);
    bool aborted = false;

    for (std::size_t i = 0; i < t->accesses.size(); ++i) {
      txn::Access& a = t->accesses[i];
      if (!AcquireOrAbort(a)) {
        aborted = true;
        break;
      }
      const hal::Cycles t0 = hal::Now();
      ResolveRow(db_, &a);
      hal::ConsumeCycles(t->logic->OpCost(t, i, db_));
      stats()->Add(TimeCategory::kExecution, hal::Now() - t0);
    }

    if (aborted) {
      ReleaseAllLocks();
      return runtime::TxnOutcome::kAbort;
    }

    // All locks held, per-access work charged: apply the procedure's real
    // memory effects without double-charging cycles.
    const hal::Cycles t0 = hal::Now();
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/false};
    const bool ok = t->logic->Run(t, ec);
    stats()->Add(TimeCategory::kExecution, hal::Now() - t0);

    // Durability: capture redo images while the exclusive locks are still
    // held (the commit epoch and per-row versions are only sound there).
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    ReleaseAllLocks();
    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  storage::Database* db_;
};

}  // namespace

TwoPlEngine::TwoPlEngine(EngineOptions options, DeadlockPolicyKind policy)
    : options_(options), policy_kind_(policy) {}

TwoPlEngine::~TwoPlEngine() = default;

std::string TwoPlEngine::name() const {
  switch (policy_kind_) {
    case DeadlockPolicyKind::kWaitDie:
      return "2pl-waitdie";
    case DeadlockPolicyKind::kWaitForGraph:
      return "2pl-waitforgraph";
    case DeadlockPolicyKind::kDreadlocks:
      return "2pl-dreadlocks";
  }
  return "2pl";
}

std::unique_ptr<lock::DeadlockPolicy> TwoPlEngine::MakePolicy() const {
  switch (policy_kind_) {
    case DeadlockPolicyKind::kWaitDie:
      return std::make_unique<lock::WaitDiePolicy>();
    case DeadlockPolicyKind::kWaitForGraph:
      return std::make_unique<lock::WaitForGraphPolicy>(options_.num_cores);
    case DeadlockPolicyKind::kDreadlocks:
      return std::make_unique<lock::DreadlocksPolicy>();
  }
  return nullptr;
}

RunResult TwoPlEngine::Run(hal::Platform* platform, storage::Database* db,
                           const workload::Workload& workload) {
  lock::LockTable::Config lt_config;
  lt_config.max_workers = options_.num_cores;
  lock::LockTable lock_table(lt_config);
  std::unique_ptr<lock::DeadlockPolicy> policy = MakePolicy();
  auto make_strategy = [&](runtime::WorkerContext& w) {
    return std::make_unique<TwoPlStrategy>(
        &lock_table, lock_table.RegisterWorker(w.worker_id, &w.stats),
        policy.get(), db, &w.stats);
  };
  return RunThreadPerTxn(options_, platform, db, workload, make_strategy);
}

}  // namespace orthrus::engine
