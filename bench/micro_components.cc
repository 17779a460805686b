// Component micro-benchmarks (google-benchmark): real-time costs of the
// building blocks on the host machine — SPSC queue ops, lock-table
// acquire/release, RNG draws, fiber switches, and simulator event
// dispatch. These measure the *infrastructure itself* (wall-clock), unlike
// the fig* binaries which measure *simulated* engine throughput.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "hal/fiber.h"
#include "hal/sim_platform.h"
#include "lock/lock_table.h"
#include "mp/multi_mesh.h"
#include "mp/queue_mesh.h"
#include "mp/spsc_queue.h"

namespace {

using namespace orthrus;

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfianNext(benchmark::State& state) {
  Rng rng(42);
  ZipfianGenerator zipf(1000000, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_SpscEnqueueDequeue(benchmark::State& state) {
  mp::SpscQueue<std::uint64_t> q(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    q.TryEnqueue(1);
    q.TryDequeue(&v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscEnqueueDequeue);

// Batched counterpart of BM_SpscEnqueueDequeue moving the same number of
// messages per items_processed: compare the two rows' items/s to see the
// index-publication amortization (the batched row must not be slower).
void BM_SpscBatchEnqueueDequeue(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  mp::SpscQueue<std::uint64_t> q(1024);
  std::uint64_t buf[64];
  for (std::size_t i = 0; i < batch; ++i) buf[i] = i;
  for (auto _ : state) {
    q.PushBatch(buf, batch);
    q.PopBatch(buf, batch);
    benchmark::DoNotOptimize(buf[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SpscBatchEnqueueDequeue)->Arg(8)->Arg(64);

// Mesh fan-in: drain a burst from `senders` queues, batched vs. one
// message per pop (max_batch=1). items/s compares delivery hot paths.
void BM_QueueMeshDrain(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  const std::size_t max_batch = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kBurst = 32;  // messages per sender per iteration
  mp::QueueMesh<std::uint64_t> mesh(senders, 1, 64);
  std::uint64_t buf[kBurst];
  for (std::size_t i = 0; i < kBurst; ++i) buf[i] = i;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int s = 0; s < senders; ++s) {
      mesh.at(s, 0).PushBatch(buf, kBurst);
    }
    while (mesh.Drain(0, [&sink](std::uint64_t v) { sink += v; },
                      max_batch) != 0) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          senders * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_QueueMeshDrain)
    ->ArgsProduct({{4, 16}, {1, 8}})
    ->ArgNames({"senders", "batch"});

// MPSC mesh fan-in: `senders` producers share one CAS-reserved ring per
// receiver instead of owning per-pair SPSC queues. Compare items/s against
// BM_QueueMeshDrain at the same sender count to price the reservation CAS
// the dynamic-sender design buys its flexibility with.
void BM_MultiMeshDrain(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  constexpr std::size_t kBurst = 32;  // messages per sender per iteration
  mp::MultiMesh<std::uint64_t> mesh(1, 2048);
  std::uint64_t buf[kBurst];
  for (std::size_t i = 0; i < kBurst; ++i) buf[i] = i;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int s = 0; s < senders; ++s) {
      std::size_t pushed = 0;
      while (pushed < kBurst) {
        pushed += mesh.at(0).PushBatch(buf + pushed, kBurst - pushed);
      }
    }
    while (mesh.Drain(0, [&sink](std::uint64_t v) { sink += v; }) != 0) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          senders * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_MultiMeshDrain)->Arg(4)->Arg(16)->ArgNames({"senders"});

void BM_LockTableAcquireRelease(benchmark::State& state) {
  lock::LockTable::Config cfg;
  cfg.num_buckets = 1 << 12;
  cfg.max_lock_heads = 1 << 16;
  cfg.max_workers = 1;
  lock::LockTable table(cfg);
  WorkerStats stats;
  lock::WorkerLockCtx* ctx = table.RegisterWorker(0, &stats);
  std::uint64_t key = 0;
  for (auto _ : state) {
    table.Acquire(ctx, 0, key++ & 1023, txn::LockMode::kExclusive, nullptr);
    table.ReleaseAll(ctx);
  }
}
BENCHMARK(BM_LockTableAcquireRelease);

// Scalar acquire loop vs AcquireBatch on a Zipf-skewed key stream: the
// batch path's win is one bucket walk per same-key run (skew makes runs)
// plus the prefetch sweep hiding bucket-miss latency on real hardware.
// Shared mode so duplicate keys inside one batch grant instead of
// self-conflicting. arg0: 0 = scalar, 1 = vectorized; arg1: batch size.
void BM_LockTableBatch(benchmark::State& state) {
  const bool vectorized = state.range(0) != 0;
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  lock::LockTable::Config cfg;
  cfg.num_buckets = 1 << 12;
  cfg.max_lock_heads = 1 << 16;
  cfg.max_workers = 1;
  lock::LockTable table(cfg);
  WorkerStats stats;
  lock::WorkerLockCtx* ctx = table.RegisterWorker(0, &stats);
  Rng rng(42);
  ZipfianGenerator zipf(1024, 0.9);
  std::vector<lock::LockTable::BatchRequest> reqs(batch);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      reqs[i].ctx = ctx;
      reqs[i].table = 0;
      reqs[i].key = zipf.Next(&rng);
      reqs[i].mode = txn::LockMode::kShared;
    }
    if (vectorized) {
      table.AcquireBatch(reqs.data(), batch, nullptr);
    } else {
      for (std::size_t i = 0; i < batch; ++i) {
        reqs[i].result = table.Acquire(reqs[i].ctx, reqs[i].table,
                                       reqs[i].key, reqs[i].mode, nullptr);
      }
    }
    table.ReleaseAll(ctx);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_LockTableBatch)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 64})
    ->Args({1, 64})
    ->ArgNames({"vectorized", "batch"});

void BM_FiberSwitchPair(benchmark::State& state) {
  // Round-trip context switch cost: main -> fiber -> main.
  void* main_sp = nullptr;
  hal::Fiber* fp = nullptr;
  bool stop = false;
  hal::Fiber fiber([&] {
    while (!stop) {
      hal::Fiber::SwitchOut(fp->mutable_sp(), main_sp);
    }
  });
  fp = &fiber;
  for (auto _ : state) {
    fiber.SwitchIn(&main_sp);
  }
  stop = true;
  fiber.SwitchIn(&main_sp);
}
BENCHMARK(BM_FiberSwitchPair);

void BM_SimEventDispatch(benchmark::State& state) {
  // Wall-time per simulated scheduling event: N cores ping-ponging on
  // relax. This bounds how much virtual time per second the host can
  // simulate.
  const int cores = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    hal::SimPlatform sim(cores);
    for (int i = 0; i < cores; ++i) {
      sim.Spawn(i, [] {
        for (int k = 0; k < 1000; ++k) hal::CpuRelax();
      });
    }
    state.ResumeTiming();
    sim.Run();
    state.SetItemsProcessed(state.items_processed() + cores * 1000);
  }
}
BENCHMARK(BM_SimEventDispatch)->Arg(4)->Arg(16)->Arg(64);

void BM_SimContendedAtomic(benchmark::State& state) {
  // Simulated contended fetch_add: how expensive is the modeled path.
  for (auto _ : state) {
    state.PauseTiming();
    hal::SimPlatform sim(8);
    auto hot = std::make_unique<hal::Atomic<std::uint64_t>>();
    for (int i = 0; i < 8; ++i) {
      sim.Spawn(i, [&] {
        for (int k = 0; k < 500; ++k) hot->fetch_add(1);
      });
    }
    state.ResumeTiming();
    sim.Run();
    state.SetItemsProcessed(state.items_processed() + 8 * 500);
  }
}
BENCHMARK(BM_SimContendedAtomic);

}  // namespace

BENCHMARK_MAIN();
