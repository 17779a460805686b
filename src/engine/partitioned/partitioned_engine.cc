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

  auto make_strategy = [&](runtime::WorkerContext& w) {
    return std::make_unique<PartitionedStrategy>(&partition_locks, db,
                                                 &w.stats);
  };
  return RunThreadPerTxn(options_, platform, db, workload, make_strategy);
}

}  // namespace orthrus::engine
