// Shared transaction-runtime layer, part 1: worker plumbing.
//
// The paper's experiments hold the worker lifecycle constant while varying
// the concurrency-control architecture. This header owns that constant
// part: per-worker clocks, statistics, spawn/join against a hal::Platform,
// and the final aggregation into a RunResult. The transaction loop run on
// top of it, restarts and their RestartBackoff included, is part 2
// (txn_driver.h). Engines describe only *what a worker does* (a
// callback receiving its WorkerContext); everything else lives here, so a
// fairness fix or a new scenario is a one-place edit instead of a four-way
// engine patch.
#ifndef ORTHRUS_RUNTIME_WORKER_POOL_H_
#define ORTHRUS_RUNTIME_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "hal/hal.h"

namespace orthrus::runtime {

// Width of the worker-id tie-break field packed into the low bits of every
// wait-die timestamp (TxnAdmission::Admit). Worker ids beyond this range
// would alias under the mask — two distinct workers' transactions could
// compare equal or, worse, a high id could overflow into the age bits and
// invert the age order — so WorkerPool CHECKs the bound at construction.
// 16 bits covers production core counts (65536 workers) while leaving 48
// bits of age: centuries of admissions at any realistic rate.
inline constexpr int kWorkerIdBits = 16;
inline constexpr int kMaxWorkers = 1 << kWorkerIdBits;

// Per-worker deadline bookkeeping. Begin/Finish run on the worker's own
// logical core so start/end are that core's clock readings. The deadline
// is checked against the caller's reading (TxnAdmission::Open). These two
// readings bound the worker's run; every reading between them goes through
// the worker's SpanClock, which starts at `start`.
struct WorkerClock {
  hal::Cycles start = 0;
  hal::Cycles deadline = 0;
  hal::Cycles end = 0;

  void Begin(double duration_seconds, double cycles_per_second) {
    start = hal::Now();  // lint:allow-now the run's first reading
    deadline = start + static_cast<hal::Cycles>(duration_seconds *
                                                cycles_per_second);
  }
  void Finish() { end = hal::Now(); }  // lint:allow-now the run's last reading
};

// Everything a worker owns for the duration of a run. Plain (non-atomic)
// fields: exactly one logical core touches a context while the platform is
// running; the pool aggregates after join. Line-aligned because the pool
// keeps the contexts in one array: packed, a worker's hot counters would
// share a cache line with its neighbour's clock.
struct alignas(kCacheLineSize) WorkerContext {
  int worker_id = -1;
  WorkerStats stats;
  WorkerClock clock;
};

// Owns the worker contexts for one engine run and the spawn/join/aggregate
// plumbing around them. Usage:
//
//   WorkerPool pool(platform, n, options.duration_seconds);
//   for (int w = 0; w < n; ++w)
//     pool.Spawn(w, [&](WorkerContext& ctx) { ...worker body... });
//   return pool.Run();
//
// Spawn wraps the body with the clock Begin/Finish calls every engine used
// to hand-roll; worker `w` runs on logical core `w`.
class WorkerPool {
 public:
  WorkerPool(hal::Platform* platform, int num_workers,
             double duration_seconds);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Context accessors are valid from construction on, so engines can
  // register per-worker state (e.g. lock-table contexts) before spawning.
  // Addresses are stable for the pool's lifetime.
  WorkerContext& worker(int w) { return workers_[w]; }

  // Registers worker `w` on logical core `w`. All Spawn calls must happen
  // before Run. The body runs with the worker's clock already begun and is
  // followed by clock.Finish().
  void Spawn(int w, std::function<void(WorkerContext&)> body);

  // Runs all workers to completion, then aggregates. Equivalent to
  // RunWorkers() followed by Finalize().
  RunResult Run();

  // Split form for engines that assert invariants between join and
  // aggregation (e.g. ORTHRUS's queue-drain checks). Finalize sums the
  // per-worker stats and reports elapsed time as the span from the
  // earliest worker start to the latest worker end.
  void RunWorkers();
  RunResult Finalize() const;

 private:
  hal::Platform* platform_;
  double duration_seconds_;
  double cps_;
  std::vector<WorkerContext> workers_;
};

}  // namespace orthrus::runtime

#endif  // ORTHRUS_RUNTIME_WORKER_POOL_H_
