// Component micro-benchmarks (google-benchmark): real-time costs of the
// building blocks on the host machine — SPSC queue ops, lock-table
// acquire/release, index probes, RNG draws, fiber switches, and simulator
// event dispatch. These measure the *infrastructure itself* (wall-clock),
// unlike the fig* binaries which measure *simulated* engine throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "hal/fiber.h"
#include "hal/sim_platform.h"
#include "lock/lock_table.h"
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

void BM_LockTableAcquireRelease(benchmark::State& state) {
  lock::LockTable::Config cfg;
  cfg.num_buckets = 1 << 12;
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

// Index probe plus first row touch, per access, on 10-access sets drawn
// uniformly from one table: a serial ResolveRow loop against the batched
// engine::ResolveRows, whose index and row prefetches overlap the misses.
// 8M rows (100-byte payload, 0.8 GB plus a 512 MiB index) miss every
// cache level; 200k rows mostly fit in L2/L3. Off-core, so nothing is
// charged. arg0: rows; arg1: 0 = serial loop, 1 = ResolveRows.
storage::Database* ProbeDb(std::uint64_t rows) {
  static std::map<std::uint64_t, std::unique_ptr<storage::Database>> dbs;
  std::unique_ptr<storage::Database>& db = dbs[rows];
  if (db == nullptr) {
    db = std::make_unique<storage::Database>();
    storage::Table* t = db->CreateTable(0, "kv", rows, 100);
    for (std::uint64_t k = 0; k < rows; ++k) t->Insert(k);
  }
  return db.get();
}

void BM_ResolveRows(benchmark::State& state) {
  constexpr std::size_t kSet = 10;
  constexpr std::size_t kSets = 1 << 14;
  const auto rows = static_cast<std::uint64_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  storage::Database* db = ProbeDb(rows);
  Rng rng(7);
  std::vector<txn::Access> pool(kSets * kSet);
  for (txn::Access& a : pool) a.key = rng.NextU64(rows);
  std::vector<txn::Access> set(kSet);
  std::size_t next = 0;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    std::copy_n(pool.begin() + static_cast<std::ptrdiff_t>(next * kSet), kSet,
                set.begin());
    next = (next + 1) & (kSets - 1);
    if (batched) {
      engine::ResolveRows(db, &set);
    } else {
      for (txn::Access& a : set) engine::ResolveRow(db, &a);
    }
    for (const txn::Access& a : set) {
      sum += *static_cast<const std::uint64_t*>(a.row);
    }
  }
  benchmark::DoNotOptimize(sum);
  state.counters["ns_per_access"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kSet),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ResolveRows)
    ->Args({8000000, 0})
    ->Args({8000000, 1})
    ->Args({200000, 0})
    ->Args({200000, 1})
    ->ArgNames({"rows", "batched"});

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
