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
  // The worker's clock cursor. A committed attempt's release-end reading
  // both stamps its commit latency and gates the next admission, so a
  // commit reads the clock once in Admit plus the strategy's phase
  // boundaries after it.
  SpanClock clock(&ctx_->stats, ctx_->clock.start);
  while (admission_.Open(clock.last(),
                         wal_ != nullptr ? wal_->PendingCount() : 0)) {
    if (wal_ != nullptr) {
      // Quantum maintenance first (flush staged fragments, heartbeat the
      // epoch, acknowledge matured commits), then the arena gate: Capture
      // runs under locks and must never block, so admission waits here —
      // outside any lock — until a whole transaction's fragments fit.
      // The maintenance is not admission: it stays uncharged, and a fresh
      // reading gates and starts what follows.
      wal_->Poll();
      if (!wal_->AdmitReady()) {
        hal::CpuRelax();
        clock.Advance(hal::Now());
        continue;
      }
      clock.Advance(hal::Now());
    }
    admission_.Admit(&t, &clock);
    bool done = false;
    while (!done) {
      const Attempt a = strategy_->TryExecute(&t, clock.last());
      clock.Advance(a.end);
      switch (a.outcome) {
        case TxnOutcome::kCommitted:
          // With durability on, the strategy's Capture queued the commit
          // as pending; it is counted (and latency-stamped) when its epoch
          // turns durable — see wal::Producer::Poll.
          if (wal_ == nullptr) {
            ctx_->stats.committed++;
            ctx_->stats.txn_latency.Record(a.end - t.start_cycles);
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
          // immediate retries. The backoff stays uncharged.
          ctx_->stats.aborted++;
          ctx_->stats.backoffs++;
          t.restarts++;
          hal::ConsumeCycles(RestartBackoff(t.restarts));
          hal::CpuRelax();
          clock.Advance(hal::Now());
          break;
        case TxnOutcome::kMismatch:
          // Stale OLLP estimate: re-plan with a fresh reconnaissance pass.
          // A transaction that exhausts its retry budget is dropped. The
          // replan stays uncharged.
          if (!admission_.planner()->Replan(&t, &ctx_->stats)) done = true;
          clock.Advance(hal::Now());
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
