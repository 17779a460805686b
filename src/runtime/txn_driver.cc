#include "runtime/txn_driver.h"

#include "wal/wal.h"

namespace orthrus::runtime {

TxnDriver::TxnDriver(const DriverOptions& options, storage::Database* db,
                     workload::TxnSource* source, ExecutionStrategy* strategy,
                     WorkerContext* ctx)
    : admission_(options, db, source, ctx),
      strategy_(strategy),
      ctx_(ctx) {}

void TxnDriver::Run() {
  txn::Txn t;
  while (true) {
    // One reading gates admission and starts it.
    hal::Cycles now = hal::Now();
    if (!admission_.Open(now, wal_ != nullptr ? wal_->PendingCount() : 0)) {
      break;
    }
    if (wal_ != nullptr) {
      // Quantum maintenance first (flush staged fragments, heartbeat the
      // epoch, acknowledge matured commits), then the arena gate: Capture
      // runs under locks and must never block, so admission waits here —
      // outside any lock — until a whole transaction's fragments fit.
      wal_->Poll();
      if (!wal_->AdmitReady()) {
        hal::CpuRelax();
        continue;
      }
      now = hal::Now();  // the maintenance above is not admission
    }
    admission_.Admit(&t, now);
    bool done = false;
    while (!done) {
      switch (strategy_->TryExecute(&t)) {
        case TxnOutcome::kCommitted:
          // With durability on, the strategy's Capture queued the commit
          // as pending; it is counted (and latency-stamped) when its epoch
          // turns durable — see wal::Producer::Poll.
          if (wal_ == nullptr) {
            ctx_->stats.committed++;
            ctx_->stats.txn_latency.Record(hal::Now() - t.start_cycles);
          }
          done = true;
          break;
        case TxnOutcome::kAbort:
          // Deadlock handling killed the attempt. A brief RestartBackoff
          // (grows with the restart count, capped) lets the conflicting
          // older transaction finish before we retry. The delay is
          // modeled: on a native core ConsumeCycles declares the cycles
          // and waits for none, so there the retry is immediate (after one
          // CpuRelax yield) and runtime.backoffs_per_commit counts
          // immediate retries.
          ctx_->stats.aborted++;
          ctx_->stats.backoffs++;
          t.restarts++;
          hal::ConsumeCycles(RestartBackoff(t.restarts));
          hal::CpuRelax();
          break;
        case TxnOutcome::kMismatch:
          // Stale OLLP estimate: re-plan with a fresh reconnaissance pass.
          // A transaction that exhausts its retry budget is dropped.
          if (!admission_.planner()->Replan(&t, &ctx_->stats)) done = true;
          break;
      }
    }
  }
  if (wal_ != nullptr) {
    // Drain the pipeline: every admitted commit must be acknowledged (the
    // group commit that covers it must complete) before the worker leaves.
    const hal::Cycles t0 = hal::Now();
    while (!wal_->Drained()) {
      wal_->Poll();
      hal::CpuRelax();
    }
    ctx_->stats.wal_wait_cycles += hal::Now() - t0;
    wal_->Retire();
  }
}

}  // namespace orthrus::runtime
