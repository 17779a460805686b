// Shared transaction-runtime layer, part 3: lock-table strategy plumbing.
//
// The shared-everything engines (2PL, deadlock-free) are ExecutionStrategy
// classes over lock::LockTable, and before this header each of them
// re-implemented the acquire → enqueue → policy wait-loop → abort dance —
// including the deadlock-policy plumbing that decides whether a blocked
// request waits or dies. LockingStrategy hoists exactly that plumbing
// behind the strategy interface: concrete strategies describe *when* locks
// are taken and how execution work interleaves with them; the wait loop,
// the DeadlockPolicy hand-off, the timing of lock waits and release-all
// live here, in one place.
//
// Timing goes through the worker's clock cursor (SpanClock), and the lock
// table reads no clock. An acquire that has to wait marks kLocking before
// LockTable::Wait, closing the lock work since the cursor's last reading,
// and kWaiting after it (two readings per wait). The strategy marks the end
// of its acquire phase itself, and ReleaseAllLocks marks the release as
// kLocking, so every cycle of an attempt lands in exactly one category.
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
  // must then release all held locks and report TxnOutcome::kAbort. Reads
  // the clock only around a wait.
  bool AcquireOrAbort(const txn::Access& a, SpanClock* clock);

  // Ordered-acquisition variant: FIFO wait that can never abort (deadlock
  // freedom must be guaranteed by the caller's acquisition order). Reads
  // the clock only around a wait, like AcquireOrAbort.
  void AcquireOrdered(const txn::Access& a, SpanClock* clock);

  // Releases every lock held by the current attempt and marks the span
  // since the cursor's last reading as kLocking. That reading ends the
  // attempt.
  void ReleaseAllLocks(SpanClock* clock);

  WorkerStats* stats() { return stats_; }

 private:
  // Waits for the pending request: the lock work before it is kLocking,
  // the wait itself kWaiting. Returns LockTable::Wait's verdict.
  bool Wait(SpanClock* clock);

  lock::LockTable* table_;
  lock::WorkerLockCtx* ctx_;
  lock::DeadlockPolicy* policy_;
  WorkerStats* stats_;
};

}  // namespace orthrus::runtime

#endif  // ORTHRUS_RUNTIME_LOCKING_STRATEGY_H_
