// Engine interface: a transaction-processing architecture that runs a
// workload on a platform and reports throughput plus the CPU-time breakdown
// of Figure 10. Four implementations reproduce the paper's systems:
//
//   TwoPlEngine          — conventional 2PL, dynamic lock acquisition,
//                          pluggable deadlock handling (Section 4 baseline)
//   DeadlockFreeEngine   — ordered acquisition over pre-declared read/write
//                          sets ("Deadlock free locking")
//   PartitionedEngine    — H-Store-style partition-level locking
//                          ("Partitioned-store")
//   OrthrusEngine        — partitioned functionality: dedicated concurrency-
//                          control cores + execution cores communicating by
//                          message passing (the paper's contribution)
//
// The transaction lifecycle itself (admission, OLLP planning, row
// resolution, deadline and commit-cap gating, RestartBackoff, stat
// accounting) is shared: it lives in src/runtime/, and the
// shared-everything engines are thin runtime::ExecutionStrategy
// implementations over it. See runtime/txn_driver.h for how to add a new
// architecture.
#ifndef ORTHRUS_ENGINE_ENGINE_H_
#define ORTHRUS_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "hal/hal.h"
#include "runtime/txn_driver.h"
#include "runtime/worker_pool.h"
#include "storage/database.h"
#include "txn/txn.h"
#include "workload/workload.h"

namespace orthrus::wal {
class GroupCommitLog;  // wal/wal.h; engines only hold the pointer here
}

namespace orthrus::engine {

struct EngineOptions {
  int num_cores = 4;

  // Run length in (virtual or wall) seconds. Workers stop starting new
  // transactions at the deadline and drain in-flight work.
  double duration_seconds = 0.005;

  // Optional commit cap per worker (0 = unlimited); used by tests that want
  // bounded runs independent of timing.
  std::uint64_t max_txns_per_worker = 0;

  // Durability. Null = off: no logger cores are spawned, no commit path
  // touches wal state, and runs are byte-identical to a build without the
  // subsystem. Non-null = a caller-owned group-commit log constructed for
  // this run (wal::GroupCommitLog(opts, db, n_producers) with n_producers
  // matching this engine's transaction-running worker count); the engine
  // spawns `wal->loggers()` extra cores past num_cores for the logger
  // role, emits redo fragments on every commit, and acknowledges commits
  // only when their epoch is durable.
  wal::GroupCommitLog* wal = nullptr;

  // Post-crash resume credit, indexed by transaction-worker id (null =
  // none): transactions a previous incarnation already made durable. They
  // count against max_txns_per_worker, and the caller's TxnSource must
  // skip the same prefix per worker. See wal::RecoveryResult.
  const std::vector<std::uint64_t>* resume_committed = nullptr;
};

// Maps the engine-level options onto the runtime layer's driver knobs.
inline runtime::DriverOptions MakeDriverOptions(const EngineOptions& o) {
  runtime::DriverOptions d;
  d.max_txns_per_worker = o.max_txns_per_worker;
  d.resume_committed = o.resume_committed;
  return d;
}

// Builds one transaction worker's strategy. Called on the setup thread,
// once per worker and before any worker starts, so per-worker lock-table
// registration needs no synchronization.
using StrategyFactory =
    std::function<std::unique_ptr<runtime::ExecutionStrategy>(
        runtime::WorkerContext&)>;

// The Run of the thread-per-transaction engines (2PL, deadlock-free,
// partitioned): options.num_cores workers, each driving its own strategy
// through runtime::TxnDriver, plus the WAL's logger cores when options.wal
// is set. An engine supplies only its strategies and the shared state they
// lock (a lock table and policy, or partition latches).
RunResult RunThreadPerTxn(const EngineOptions& options,
                          hal::Platform* platform, storage::Database* db,
                          const workload::Workload& workload,
                          const StrategyFactory& make_strategy);

class Engine {
 public:
  virtual ~Engine() = default;

  // Runs the workload. `db` must already be loaded with a partitioning
  // consistent with this engine's configuration. `platform` must be fresh
  // (one Run per platform instance).
  virtual RunResult Run(hal::Platform* platform, storage::Database* db,
                        const workload::Workload& workload) = 0;

  virtual std::string name() const = 0;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_ENGINE_H_
