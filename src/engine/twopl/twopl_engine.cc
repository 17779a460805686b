#include "engine/twopl/twopl_engine.h"

#include "runtime/locking_strategy.h"
#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of conventional dynamic 2PL: resolve the planned access set,
// acquire each lock at the access's turn with that access's declared work
// charged while holding it, then run the procedure's memory effects with
// all locks held. The acquire / policy-wait / abort plumbing lives in
// runtime::LockingStrategy; this class only decides the interleaving.
class TwoPlStrategy final : public runtime::LockingStrategy {
 public:
  TwoPlStrategy(lock::LockTable* lock_table, lock::WorkerLockCtx* ctx,
                lock::DeadlockPolicy* policy, storage::Database* db,
                WorkerStats* st)
      : LockingStrategy(lock_table, ctx, policy, st), db_(db) {}

  // Timed by phase, one clock reading per boundary: the caller's reading
  // `t0` starts the resolve phase, and each of resolve | acquire | logic |
  // release ends with a reading of its own. Four readings on commit, three
  // on abort, plus the two LockTable::Wait takes per lock wait.
  runtime::Attempt TryExecute(txn::Txn* t, hal::Cycles t0) override {
    BeginLockedAttempt(*t);

    // Planned data access: the index is read-only during a run, so every
    // row resolves before the first lock and the misses overlap. Only
    // pointers are stored and prefetches issued; row contents are touched
    // by logic->Run alone, after every lock is held.
    ResolveRows(db_, &t->accesses);
    const hal::Cycles t1 = hal::Now();
    stats()->Add(TimeCategory::kExecution, t1 - t0);

    // Acquire phase. Each access's declared work is modelled under its
    // lock (sim only; a native core models none) and moved from the span
    // to kExecution by the cycles ConsumeCycles reports.
    const hal::Cycles waited_before = WaitedSoFar();
    hal::Cycles modelled = 0;
    bool aborted = false;
    for (std::size_t i = 0; i < t->accesses.size(); ++i) {
      if (!AcquireOrAbort(t->accesses[i])) {
        aborted = true;
        break;
      }
      modelled += hal::ConsumeCycles(t->logic->OpCost(t, i, db_));
    }
    const hal::Cycles t2 = hal::Now();
    ChargeAcquirePhase(t2 - t1, waited_before, modelled);

    if (aborted) {
      return {runtime::TxnOutcome::kAbort, ReleaseAllLocks(t2)};
    }

    // All locks held, per-access work charged: apply the procedure's real
    // memory effects without double-charging cycles.
    txn::ExecContext ec{db_, stats(), /*charge_cycles=*/false};
    const bool ok = t->logic->Run(t, ec);
    const hal::Cycles t3 = hal::Now();
    stats()->Add(TimeCategory::kExecution, t3 - t2);

    // Durability: capture redo images while the exclusive locks are still
    // held (the commit epoch and per-row versions are only sound there).
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
