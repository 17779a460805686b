#include "runtime/worker_pool.h"

#include <algorithm>
#include <utility>

namespace orthrus::runtime {

WorkerPool::WorkerPool(hal::Platform* platform, int num_workers,
                       double duration_seconds)
    : platform_(platform),
      duration_seconds_(duration_seconds),
      cps_(platform->CyclesPerSecond()),
      workers_(num_workers) {
  // Worker ids become wait-die tie-break bits (kWorkerIdBits); an id past
  // the field would silently corrupt transaction age ordering.
  ORTHRUS_CHECK_MSG(num_workers >= 1 && num_workers <= kMaxWorkers,
                    "worker count exceeds the wait-die tie-break range");
  for (int w = 0; w < num_workers; ++w) workers_[w].worker_id = w;
}

void WorkerPool::Spawn(int w, std::function<void(WorkerContext&)> body) {
  WorkerContext* ctx = &workers_[w];
  platform_->Spawn(w, [this, ctx, body = std::move(body)]() {
    // Stall-accounting sink for blocking queue sends (observability only;
    // see mp::detail::WedgeSpin). Installed for the body's lifetime and
    // folded into the worker's plain stats afterward.
    hal::SpinStallSink sink;
    hal::CoreContext* core = hal::CurrentCore();
    if (core != nullptr) core->send_stall_sink = &sink;
    ctx->clock.Begin(duration_seconds_, cps_);
    body(*ctx);
    ctx->clock.Finish();
    if (core != nullptr) core->send_stall_sink = nullptr;
    // Last on-core writes to the worker-owned plain stats before Finalize
    // reads them after join; tagged so a straggling cross-core reader
    // (anything but the published_* mirrors) is a detector report.
    hal::RaceCheck(&ctx->stats.send_stalls, sizeof(ctx->stats.send_stalls),
                   true, "runtime.worker_stats.stall_fold");
    ctx->stats.send_stalls += sink.stalls;
    ctx->stats.send_stall_cycles += sink.stall_cycles;
  });
}

RunResult WorkerPool::Run() {
  RunWorkers();
  return Finalize();
}

void WorkerPool::RunWorkers() { platform_->Run(); }

RunResult WorkerPool::Finalize() const {
  RunResult result;
  result.cycles_per_second = cps_;
  result.per_worker.reserve(workers_.size());
  hal::Cycles min_start = ~0ull;
  hal::Cycles max_end = 0;
  for (const WorkerContext& w : workers_) {
    result.per_worker.push_back(w.stats);
    result.total.Merge(w.stats);
    min_start = std::min(min_start, w.clock.start);
    max_end = std::max(max_end, w.clock.end);
  }
  if (max_end > min_start) {
    result.elapsed_seconds =
        static_cast<double>(max_end - min_start) / cps_;
  }
  return result;
}

}  // namespace orthrus::runtime
