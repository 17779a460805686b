#include "engine/partitioned/partitioned_engine.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "wal/wal.h"

namespace orthrus::engine {
namespace {

// One attempt of H-Store-style partition-level locking: compute the
// transaction's partition footprint, take the coarse per-partition locks
// in ascending order (deadlock free by construction), execute, release.
class PartitionedStrategy final : public runtime::ExecutionStrategy {
 public:
  PartitionedStrategy(std::vector<std::unique_ptr<hal::SpinLock>>* locks,
                      storage::Database* db, WorkerStats* st)
      : locks_(locks), db_(db), st_(st) {
    parts_.reserve(16);
  }

  runtime::TxnOutcome TryExecute(txn::Txn* t) override {
    // Partition footprint, ascending and deduplicated: the ascending order
    // makes partition-lock acquisition deadlock free.
    parts_.clear();
    for (const txn::Access& a : t->accesses) {
      parts_.push_back(db_->partitioner().PartOf(a.key));
    }
    std::sort(parts_.begin(), parts_.end());
    parts_.erase(std::unique(parts_.begin(), parts_.end()), parts_.end());

    hal::Cycles t0 = hal::Now();
    LockFootprint();
    st_->Add(TimeCategory::kLocking, hal::Now() - t0);

    t0 = hal::Now();
    ResolveRows(db_, &t->accesses);
    txn::ExecContext ec{db_, st_, /*charge_cycles=*/true};
    const bool ok = t->logic->Run(t, ec);
    st_->Add(TimeCategory::kExecution, hal::Now() - t0);

    // Durability: capture redo images under the partition locks — the
    // coarse locks cover every row the transaction wrote.
    if (ok && wal_ != nullptr) wal_->Capture(t, db_);

    t0 = hal::Now();
    UnlockFootprint();
    st_->Add(TimeCategory::kLocking, hal::Now() - t0);

    return ok ? runtime::TxnOutcome::kCommitted
              : runtime::TxnOutcome::kMismatch;
  }

 private:
  // A dynamic, data-dependent lock set is outside what the static analysis
  // can follow; safety comes from the ascending acquisition order above.
  void LockFootprint() ORTHRUS_NO_THREAD_SAFETY_ANALYSIS {
    for (int p : parts_) (*locks_)[p]->Lock();
  }
  void UnlockFootprint() ORTHRUS_NO_THREAD_SAFETY_ANALYSIS {
    for (int p : parts_) (*locks_)[p]->Unlock();
  }

  std::vector<std::unique_ptr<hal::SpinLock>>* locks_;
  storage::Database* db_;
  WorkerStats* st_;
  std::vector<int> parts_;
};

}  // namespace

RunResult PartitionedEngine::Run(hal::Platform* platform,
                                 storage::Database* db,
                                 const workload::Workload& workload) {
  const int n = options_.num_cores;
  ORTHRUS_CHECK_MSG(db->partitioner().n == n,
                    "Partitioned-store needs one partition per worker; "
                    "load the database with num_table_partitions == cores");

  // One coarse-grained lock per partition.
  std::vector<std::unique_ptr<hal::SpinLock>> partition_locks;
  partition_locks.reserve(n);
  for (int i = 0; i < n; ++i) {
    partition_locks.push_back(std::make_unique<hal::SpinLock>());
  }

  const int loggers = options_.wal != nullptr ? options_.wal->loggers() : 0;
  runtime::WorkerPool pool(platform, n + loggers, options_.duration_seconds,
                           options_.rng_seed);
  const runtime::DriverOptions dopts = MakeDriverOptions(options_);
  for (int w = 0; w < n; ++w) {
    pool.Spawn(w, [this, db, &workload, &partition_locks,
                   &dopts](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      PartitionedStrategy strategy(&partition_locks, db, &ctx.stats);
      runtime::TxnDriver driver(dopts, db, source.get(), &strategy, &ctx);
      std::unique_ptr<wal::Producer> producer;
      if (options_.wal != nullptr) {
        producer = std::make_unique<wal::Producer>(options_.wal,
                                                   ctx.worker_id, &ctx);
        strategy.set_wal(producer.get());
        driver.set_wal(producer.get());
      }
      driver.Run();
    });
  }
  for (int l = 0; l < loggers; ++l) {
    const int w = n + l;
    pool.AssignRole(w, runtime::WorkerRole::kLogger);
    pool.Spawn(w, [this, l](runtime::WorkerContext& ctx) {
      options_.wal->RunLogger(l, &ctx);
    });
  }

  RunResult result = pool.Run();
  if (options_.wal != nullptr) {
    ORTHRUS_CHECK_MSG(options_.wal->MeshBacklogRaw() == 0,
                      "wal fragments stranded in the mesh after shutdown");
  }
  return result;
}

}  // namespace orthrus::engine
