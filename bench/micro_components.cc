// Component micro-benchmarks (google-benchmark): real-time costs of the
// building blocks on the host machine — mesh send/drain, lock-table
// acquire/release, index probes, RNG draws, fiber switches, native hal
// hooks, and simulator event dispatch. These measure the *infrastructure
// itself* (wall-clock), unlike the fig* binaries which measure *simulated*
// engine throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "hal/fiber.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "lock/lock_table.h"
#include "mp/queue_mesh.h"
#include "storage/table.h"

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

// Ring push/pop per message through the mesh: each of `senders` rings
// takes a Send burst, then the one receiver Drains to empty. items/s is
// messages moved; a burst fills kBurst / kMsgsPerLine payload lines per
// ring, and each Drain call takes at most one line per sender.
void BM_QueueMeshSendDrain(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  constexpr std::uint64_t kBurst = 32;  // messages per sender per iteration
  mp::QueueMesh<std::uint64_t> mesh(senders, 1, 64);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int s = 0; s < senders; ++s) {
      for (std::uint64_t i = 0; i < kBurst; ++i) mesh.Send(s, 0, i);
    }
    while (mesh.Drain(0, [&sink](std::uint64_t v) { sink += v; }) != 0) {
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          senders * static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_QueueMeshSendDrain)->Arg(1)->Arg(4)->Arg(16)->ArgName("senders");

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
// runtime::ResolveRows, whose index and row prefetches overlap the misses.
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
      runtime::ResolveRows(db, &set);
    } else {
      for (txn::Access& a : set) runtime::ResolveRow(db, &a);
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

// hal hot-path hooks on a native core, with the calling thread installed as
// core 0 of a NativePlatform the way NativePlatform::Run installs its
// threads. The CC loop pays one Now() per iteration, and its ring indexes
// and kCcOpCycles charges pay the other two per message.
// arg0: 0 = hal::Now(), 1 = hal::Atomic::load, 2 = hal::ConsumeCycles.
void BM_HalHooksNative(benchmark::State& state) {
  hal::NativePlatform platform(1);
  hal::CoreContext core;
  core.platform = &platform;
  core.core_id = 0;
  hal::SetCurrentCore(&core);
  hal::Atomic<std::uint64_t> word;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("Now");
      for (auto _ : state) benchmark::DoNotOptimize(hal::Now());
      break;
    case 1:
      state.SetLabel("Atomic::load");
      for (auto _ : state) benchmark::DoNotOptimize(word.load());
      break;
    default:
      state.SetLabel("ConsumeCycles");
      for (auto _ : state) {
        hal::ConsumeCycles(100);
        benchmark::ClobberMemory();
      }
      break;
  }
  hal::SetCurrentCore(nullptr);
}
BENCHMARK(BM_HalHooksNative)->DenseRange(0, 2)->ArgName("hook");

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
