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
  storage::Database* db = admission_.planner()->db();
  // The worker's clock cursor: every reading below is a Mark, so each span
  // of the run is charged once. A committed attempt's release-end reading
  // both stamps its commit latency and gates the next admission.
  SpanClock clock(&ctx_->stats, ctx_->clock.start);
  while (admission_.Open(clock.last(),
                         wal_ != nullptr ? wal_->PendingCount() : 0)) {
    if (wal_ != nullptr) {
      // Quantum maintenance first (flush staged fragments, heartbeat the
      // epoch, acknowledge matured commits), then the arena gate: Capture
      // runs under locks and must never block, so admission waits here —
      // outside any lock — until a whole transaction's fragments fit. A
      // stalled pass is waiting; otherwise the maintenance is charged with
      // the admission that follows it.
      wal_->Poll();
      if (!wal_->AdmitReady()) {
        hal::CpuRelax();
        clock.Mark(TimeCategory::kWaiting);
        continue;
      }
    }
    admission_.Admit(&t, &clock);
    ResolveRows(db, &t.accesses);
    clock.Mark(TimeCategory::kExecution);
    bool done = false;
    while (!done) {
      switch (strategy_->TryExecute(&t, &clock)) {
        case TxnOutcome::kCommitted:
          // With durability on, the strategy's Capture queued the commit
          // as pending; it is counted (and latency-stamped) when its epoch
          // turns durable — see wal::Producer::Poll.
          if (wal_ == nullptr) {
            ctx_->stats.committed++;
            ctx_->stats.txn_latency.Record(clock.last() - t.start_cycles);
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
          // immediate retries. The access set is unchanged, so the retry
          // keeps its resolved rows.
          ctx_->stats.aborted++;
          ctx_->stats.backoffs++;
          t.restarts++;
          hal::ConsumeCycles(RestartBackoff(t.restarts));
          hal::CpuRelax();
          clock.Mark(TimeCategory::kWaiting);
          break;
        case TxnOutcome::kMismatch:
          // Stale OLLP estimate: re-plan with a fresh reconnaissance pass
          // and resolve the new set. A transaction that exhausts its retry
          // budget is dropped.
          if (admission_.planner()->Replan(&t, &ctx_->stats)) {
            ResolveRows(db, &t.accesses);
          } else {
            done = true;
          }
          clock.Mark(TimeCategory::kExecution);
          break;
      }
    }
  }
  if (wal_ != nullptr) {
    // Drain the pipeline: every admitted commit must be acknowledged (the
    // group commit that covers it must complete) before the worker leaves.
    const hal::Cycles drain_start = clock.last();
    while (!wal_->Drained()) {
      wal_->Poll();
      hal::CpuRelax();
    }
    ctx_->stats.wal_wait_cycles +=
        clock.Mark(TimeCategory::kWaiting) - drain_start;
    wal_->Retire();
  }
}

}  // namespace orthrus::runtime
