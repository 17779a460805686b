// Shared transaction-runtime layer, part 2: the per-worker transaction
// lifecycle.
//
// Every architecture in the paper runs the same loop around its
// concurrency control: pull a transaction from the worker's source, plan
// its access set (OLLP reconnaissance when data-dependent), stamp it,
// try to execute it until it commits — backing off after deadlock aborts
// and re-planning after stale-estimate aborts — all gated by the run
// deadline and an optional per-worker commit cap. Before this layer each
// engine re-implemented that loop; now an engine supplies only an
// ExecutionStrategy (how one attempt acquires locks and runs logic) and
// the TxnDriver owns everything else.
//
// ORTHRUS's execution threads pipeline several transactions and therefore
// cannot use the sequential driver loop; they share the same admission
// front end (TxnAdmission) and planner instead, so admission, stamping,
// gating, and replanning still have exactly one implementation.
#ifndef ORTHRUS_RUNTIME_TXN_DRIVER_H_
#define ORTHRUS_RUNTIME_TXN_DRIVER_H_

#include <cstdint>
#include <memory>

#include "runtime/worker_pool.h"
#include "txn/ollp.h"
#include "txn/txn.h"
#include "workload/workload.h"

namespace orthrus::wal {
class Producer;  // wal/wal.h; the driver layer never needs the definition
}

namespace orthrus::runtime {

// Result of one execution attempt. The strategy must return with no locks
// held in every case.
enum class TxnOutcome {
  kCommitted,  // logic ran and committed
  kAbort,      // deadlock handling killed the attempt; retry after backoff
  kMismatch,   // stale OLLP estimate; re-plan and retry
};

// One attempt at executing a planned transaction. Implementations hold the
// per-worker state they need (lock-table context, partition locks, ...);
// the driver owns retries, backoff, re-planning, and commit accounting.
class ExecutionStrategy {
 public:
  virtual ~ExecutionStrategy() = default;
  virtual TxnOutcome TryExecute(txn::Txn* t) = 0;

  // Durability attachment. When set, a strategy must call
  // wal_->Capture(t, db) after the transaction's logic has succeeded and
  // *before releasing its exclusive locks* — the capture reads the commit
  // epoch and bumps per-row versions under those locks. Commit accounting
  // then moves to the group-commit acknowledgement (see TxnDriver::Run).
  void set_wal(wal::Producer* w) { wal_ = w; }

 protected:
  wal::Producer* wal_ = nullptr;
};

// Restart backoff, configured in one place and ablatable. The default is
// the capped exponential with deterministic per-core jitter that 2PL has
// always used: (base << min(restarts, max_shift)) + FastJitter(jitter).
// `rng` is the worker's seeded stream, for randomized policies; the
// default policy deliberately uses hal::FastJitter instead so simulator
// runs stay bit-reproducible with the pre-runtime-layer engines.
class BackoffPolicy {
 public:
  hal::Cycles base = 100;
  std::uint32_t max_shift = 4;
  hal::Cycles jitter = 256;

  virtual ~BackoffPolicy() = default;

  // `restarts` is the transaction's restart count including the abort that
  // triggered this call.
  virtual hal::Cycles Delay(std::uint32_t restarts, Rng* rng) const {
    (void)rng;
    return (base << (restarts < max_shift ? restarts : max_shift)) +
           hal::FastJitter(jitter);
  }
};

struct DriverOptions {
  // The run deadline is not configured here: it lives in the worker's
  // WorkerClock, which WorkerPool::Spawn begins with the pool's duration —
  // one source of truth for admission gating and elapsed-time reporting.

  // Optional commit cap per worker (0 = unlimited).
  std::uint64_t max_txns_per_worker = 0;

  // Charge source pull + planning to TimeCategory::kExecution. The
  // message-passing engines account admission this way; the
  // shared-everything engines historically did not.
  bool charge_admission = false;

  // Restart backoff; null selects the default capped-jitter policy.
  const BackoffPolicy* backoff = nullptr;

  // Post-crash resume credit, indexed by worker id (null = none). A worker
  // whose previous incarnation already made `(*resume_committed)[w]`
  // transactions durable counts them against its commit cap, so a resumed
  // capped run finishes the remainder instead of re-running the cap.
  const std::vector<std::uint64_t>* resume_committed = nullptr;
};

// Admission front end: the deadline/cap gate plus pull-plan-stamp of the
// next transaction. Sequential engines use it through TxnDriver; pipelined
// engines (ORTHRUS) drive it directly.
class TxnAdmission {
 public:
  TxnAdmission(const DriverOptions& options, storage::Database* db,
               workload::TxnSource* source, WorkerContext* ctx)
      : options_(options), planner_(db), source_(source), ctx_(ctx) {}

  // True while the worker may start another transaction at `now`, the
  // caller's clock reading (the gate reads no clock of its own, so a caller
  // can share one reading across adjacent stage boundaries). `inflight` is
  // the caller's count of admitted-but-unacknowledged commits (the wal
  // pending queue): they count against the cap so a capped durable run
  // admits exactly the cap, not cap-plus-pipeline-depth.
  bool Open(hal::Cycles now, std::uint64_t inflight = 0) const {
    std::uint64_t done = ctx_->stats.committed + inflight;
    if (options_.resume_committed != nullptr) {
      done += (*options_.resume_committed)[static_cast<std::size_t>(
          ctx_->worker_id)];
    }
    return now < ctx_->clock.deadline &&
           (options_.max_txns_per_worker == 0 ||
            done < options_.max_txns_per_worker);
  }

  // Fills `t` with the next transaction: source pull, OLLP plan, wait-die
  // timestamp (age-ordered, low 16 bits break ties between workers — see
  // kWorkerIdBits; WorkerPool CHECKs that worker ids fit), latency start
  // stamp, restart counter reset. `now` is the caller's clock reading at
  // the start of admission. Admit reads the clock once, after planning:
  // that reading ends the span charged with charge_admission, becomes
  // t->start_cycles, and is returned for the caller's next stage.
  hal::Cycles Admit(txn::Txn* t, hal::Cycles now) {
    source_->Next(t);
    planner_.Plan(t);
    const hal::Cycles end = hal::Now();
    if (options_.charge_admission) {
      ctx_->stats.Add(TimeCategory::kExecution, end - now);
    }
    t->timestamp = (++ts_counter_ << kWorkerIdBits) |
                   static_cast<std::uint64_t>(ctx_->worker_id);
    t->start_cycles = end;
    t->restarts = 0;
    return end;
  }

  txn::OllpPlanner* planner() { return &planner_; }
  WorkerContext* context() { return ctx_; }

 private:
  DriverOptions options_;
  txn::OllpPlanner planner_;
  workload::TxnSource* source_;
  WorkerContext* ctx_;
  std::uint64_t ts_counter_ = 0;
};

// The sequential per-worker loop: admit, attempt until committed (with
// backoff after aborts and re-planning after mismatches), account the
// commit, repeat until the gate closes.
class TxnDriver {
 public:
  TxnDriver(const DriverOptions& options, storage::Database* db,
            workload::TxnSource* source, ExecutionStrategy* strategy,
            WorkerContext* ctx);

  // Runs the loop to completion. The worker's clock must already be begun
  // (WorkerPool::Spawn does this).
  void Run();

  TxnAdmission& admission() { return admission_; }

  // Durability attachment, for the driver and its strategy: the driver
  // polls the producer each iteration, gates admission on arena space and
  // the pending pipeline, defers commit accounting to the group-commit ack,
  // and drains + retires the producer before returning.
  void set_wal(wal::Producer* w) {
    wal_ = w;
    strategy_->set_wal(w);
  }

 private:
  TxnAdmission admission_;
  ExecutionStrategy* strategy_;
  WorkerContext* ctx_;
  const BackoffPolicy* backoff_;
  BackoffPolicy default_backoff_;
  wal::Producer* wal_ = nullptr;
};

}  // namespace orthrus::runtime

#endif  // ORTHRUS_RUNTIME_TXN_DRIVER_H_
