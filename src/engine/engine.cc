#include "engine/engine.h"

#include "wal/wal.h"

namespace orthrus::engine {

RunResult RunThreadPerTxn(const EngineOptions& options,
                          hal::Platform* platform, storage::Database* db,
                          const workload::Workload& workload,
                          const StrategyFactory& make_strategy) {
  const int n = options.num_cores;
  wal::GroupCommitLog* log = options.wal;
  const int loggers = log != nullptr ? log->loggers() : 0;
  runtime::WorkerPool pool(platform, n + loggers, options.duration_seconds,
                           options.rng_seed);
  const runtime::DriverOptions dopts = MakeDriverOptions(options);
  std::vector<std::unique_ptr<runtime::ExecutionStrategy>> strategies(n);
  for (int w = 0; w < n; ++w) {
    strategies[w] = make_strategy(pool.worker(w));
    runtime::ExecutionStrategy* strategy = strategies[w].get();
    pool.Spawn(w, [db, &workload, &dopts, log,
                   strategy](runtime::WorkerContext& ctx) {
      std::unique_ptr<workload::TxnSource> source =
          workload.MakeSource(ctx.worker_id);
      runtime::TxnDriver driver(dopts, db, source.get(), strategy, &ctx);
      std::unique_ptr<wal::Producer> producer;
      if (log != nullptr) {
        producer = std::make_unique<wal::Producer>(log, ctx.worker_id, &ctx);
        driver.set_wal(producer.get());
      }
      driver.Run();
    });
  }
  for (int l = 0; l < loggers; ++l) {
    pool.AssignRole(n + l, runtime::WorkerRole::kLogger);
    pool.Spawn(n + l, [log, l](runtime::WorkerContext& ctx) {
      log->RunLogger(l, &ctx);
    });
  }

  RunResult result = pool.Run();
  if (log != nullptr) {
    ORTHRUS_CHECK_MSG(log->MeshBacklogRaw() == 0,
                      "wal fragments stranded in the mesh after shutdown");
  }
  return result;
}

}  // namespace orthrus::engine
