#include "runtime/locking_strategy.h"

namespace orthrus::runtime {

bool LockingStrategy::AcquireOrAbort(const txn::Access& a, SpanClock* clock) {
  const lock::LockTable::AcquireResult r =
      table_->Acquire(ctx_, a.table, a.key, a.mode, policy_);
  if (r == lock::LockTable::AcquireResult::kWaiting) return Wait(clock);
  return r != lock::LockTable::AcquireResult::kDie;
}

void LockingStrategy::AcquireOrdered(const txn::Access& a, SpanClock* clock) {
  const lock::LockTable::AcquireResult r =
      table_->Acquire(ctx_, a.table, a.key, a.mode, policy_);
  if (r == lock::LockTable::AcquireResult::kWaiting) {
    const bool granted = Wait(clock);
    ORTHRUS_CHECK_MSG(granted, "FIFO wait cannot abort");
  } else {
    ORTHRUS_CHECK_MSG(r == lock::LockTable::AcquireResult::kGranted,
                      "ordered acquisition cannot die");
  }
}

void LockingStrategy::ReleaseAllLocks(SpanClock* clock) {
  table_->ReleaseAll(ctx_);
  clock->Mark(TimeCategory::kLocking);
}

bool LockingStrategy::Wait(SpanClock* clock) {
  clock->Mark(TimeCategory::kLocking);
  const bool granted = table_->Wait(ctx_, policy_);
  clock->Mark(TimeCategory::kWaiting);
  return granted;
}

}  // namespace orthrus::runtime
