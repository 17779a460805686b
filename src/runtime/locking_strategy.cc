#include "runtime/locking_strategy.h"

namespace orthrus::runtime {

bool LockingStrategy::AcquireOrAbort(const txn::Access& a) {
  const lock::LockTable::AcquireResult r =
      table_->Acquire(ctx_, a.table, a.key, a.mode, policy_);
  if (r == lock::LockTable::AcquireResult::kWaiting) {
    return table_->Wait(ctx_, policy_);
  }
  return r != lock::LockTable::AcquireResult::kDie;
}

void LockingStrategy::AcquireOrdered(const txn::Access& a) {
  const lock::LockTable::AcquireResult r =
      table_->Acquire(ctx_, a.table, a.key, a.mode, policy_);
  if (r == lock::LockTable::AcquireResult::kWaiting) {
    const bool granted = table_->Wait(ctx_, policy_);
    ORTHRUS_CHECK_MSG(granted, "FIFO wait cannot abort");
  } else {
    ORTHRUS_CHECK_MSG(r == lock::LockTable::AcquireResult::kGranted,
                      "ordered acquisition cannot die");
  }
}

void LockingStrategy::ChargeAcquirePhase(hal::Cycles span,
                                         hal::Cycles waited_before,
                                         hal::Cycles modelled) {
  const hal::Cycles carved = (WaitedSoFar() - waited_before) + modelled;
  stats_->Add(TimeCategory::kExecution, modelled);
  stats_->Add(TimeCategory::kLocking, span > carved ? span - carved : 0);
}

hal::Cycles LockingStrategy::ReleaseAllLocks(hal::Cycles since) {
  table_->ReleaseAll(ctx_);
  const hal::Cycles end = hal::Now();
  stats_->Add(TimeCategory::kLocking, end - since);
  return end;
}

}  // namespace orthrus::runtime
