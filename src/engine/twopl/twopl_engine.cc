#include "engine/twopl/twopl_engine.h"

#include "runtime/locking_strategy.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of conventional dynamic 2PL over the driver's resolved
// access set: acquire each lock at the access's turn with that access's
// declared work charged while holding it, then run the procedure's memory
// effects with all locks held. The acquire / policy-wait / abort plumbing
// lives in runtime::LockingStrategy; this class only decides the
// interleaving.
class TwoPlStrategy final : public runtime::LockingStrategy {
 public:
  TwoPlStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
                lock::DeadlockPolicy* policy, storage::Database* db,
                WorkerStats* st)
      : LockingStrategy(lock_table, ctx, policy, st), db_(db) {}

  // Timed by phase, one Mark at the end of each of acquire | logic |
  // release: three readings on commit and on abort, plus two per lock wait.
  runtime::TxnOutcome TryExecute(txn::Txn* t, SpanClock* clock) override {
    BeginLockedAttempt(*t);

    // Acquire phase. Each access's declared work is modelled under its
    // lock (sim only; a native core models none) and charged to
    // kExecution by the cycles ConsumeCycles reports; the rest of the
    // phase is kLocking.
    bool aborted = false;
    for (std::size_t i = 0; i < t->accesses.size(); ++i) {
      if (!AcquireOrAbort(t->accesses[i], clock)) {
        aborted = true;
        break;
      }
      clock->Charge(TimeCategory::kExecution,
                    hal::ConsumeCycles(t->logic->OpCost(t, i, db_)));
    }
    clock->Mark(TimeCategory::kLocking);
    if (aborted) {
      ReleaseAllLocks(clock);
      return runtime::TxnOutcome::kAbort;
    }

    // All locks held, per-access work charged: apply the procedure's real
    // memory effects without double-charging cycles.
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/false};
    const bool ok = t->logic->Run(t, ec);
    clock->Mark(TimeCategory::kExecution);

    // Durability: capture redo images while the exclusive locks are still
    // held (the commit epoch and per-row versions are only sound there).
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);
    ReleaseAllLocks(clock);
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
