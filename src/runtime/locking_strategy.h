// Shared transaction-runtime layer, part 3: lock-table strategy plumbing.
//
// The shared-everything engines (2PL, deadlock-free) are ExecutionStrategy
// classes over lock::LockTable, and before this header each of them
// re-implemented the acquire → enqueue → policy wait-loop → abort dance —
// including the deadlock-policy plumbing that decides whether a blocked
// request waits or dies. LockingStrategy hoists exactly that plumbing
// behind the strategy interface: concrete strategies describe *when* locks
// are taken and how execution work interleaves with them; the wait loop,
// the DeadlockPolicy hand-off, the acquire-phase accounting and
// release-all live here, in one place.
//
// Accounting is by phase, not by lock call: the acquire calls read no
// clock. Blocked time is charged to kWaiting inside LockTable::Wait (two
// readings per wait). A strategy times its whole acquire phase with the
// readings that bound it and hands the span to ChargeAcquirePhase, which
// carves the waits and any declared per-access work out of it and charges
// the rest to kLocking. ReleaseAllLocks closes the attempt with one more
// reading and returns it as the attempt's end.
#ifndef ORTHRUS_RUNTIME_LOCKING_STRATEGY_H_
#define ORTHRUS_RUNTIME_LOCKING_STRATEGY_H_

#include "lock/lock_table.h"
#include "runtime/txn_driver.h"

namespace orthrus::runtime {

class LockingStrategy : public ExecutionStrategy {
 protected:
  // `policy` may be null (ordered acquisition needs no deadlock handling);
  // it is shared across workers and not owned.
  LockingStrategy(lock::LockTable* table, lock::WorkerLockCtx* ctx,
                  lock::DeadlockPolicy* policy, WorkerStats* stats)
      : table_(table), ctx_(ctx), policy_(policy), stats_(stats) {}

  // Publishes the transaction's timestamp to the lock manager (wait-die's
  // age; harmless otherwise). Call once per attempt, before any acquire.
  void BeginLockedAttempt(const txn::Txn& t) {
    ctx_->txn_timestamp = t.timestamp;
  }

  // One dynamic-2PL acquisition, policy wait loop included: requests the
  // lock, and if queued behind a conflict runs the configured deadlock
  // policy's wait. Returns false when the policy aborted the attempt (die
  // at request time, or a detected deadlock during the wait); the caller
  // must then release all held locks and report TxnOutcome::kAbort. No
  // clock reading outside the wait: the caller times the phase.
  bool AcquireOrAbort(const txn::Access& a);

  // Ordered-acquisition variant: FIFO wait that can never abort (deadlock
  // freedom must be guaranteed by the caller's acquisition order). Timed
  // by the caller, like AcquireOrAbort.
  void AcquireOrdered(const txn::Access& a);

  // The kWaiting total so far; read it at the start of an acquire phase
  // and pass it to ChargeAcquirePhase at the end.
  hal::Cycles WaitedSoFar() const {
    return stats_->Get(TimeCategory::kWaiting);
  }

  // Charges an acquire phase that spanned `span` cycles. The lock waits
  // inside it (charged to kWaiting since `waited_before`) and `modelled`
  // cycles of declared per-access work (hal::ConsumeCycles' return, charged
  // here to kExecution) are carved out; the rest is kLocking, clamped at 0
  // because unpinned native threads can read a clock that runs behind the
  // one read inside a wait.
  void ChargeAcquirePhase(hal::Cycles span, hal::Cycles waited_before,
                          hal::Cycles modelled);

  // Releases every lock held by the current attempt and charges kLocking
  // from `since`, the caller's last clock reading, to now. Returns the
  // reading, which ends the attempt.
  hal::Cycles ReleaseAllLocks(hal::Cycles since);

  WorkerStats* stats() { return stats_; }

 private:
  lock::LockTable* table_;
  lock::WorkerLockCtx* ctx_;
  lock::DeadlockPolicy* policy_;
  WorkerStats* stats_;
};

}  // namespace orthrus::runtime

#endif  // ORTHRUS_RUNTIME_LOCKING_STRATEGY_H_
