// Tests for the hardware abstraction layer: fibers, the discrete-event
// simulator (scheduling, clocks, coherence cost model) and the native
// platform.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hal/fiber.h"
#include "hal/hal.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"

namespace orthrus::hal {
namespace {

// ---------------------------------------------------------------- Fiber

TEST(Fiber, RunsToCompletion) {
  bool ran = false;
  Fiber f([&] { ran = true; });
  void* main_sp = nullptr;
  f.SwitchIn(&main_sp);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, PingPongSwitching) {
  std::vector<int> order;
  void* main_sp = nullptr;
  Fiber* fp = nullptr;
  Fiber f([&] {
    order.push_back(1);
    Fiber::SwitchOut(fp->mutable_sp(), main_sp);
    order.push_back(3);
    Fiber::SwitchOut(fp->mutable_sp(), main_sp);
    order.push_back(5);
  });
  fp = &f;
  f.SwitchIn(&main_sp);
  order.push_back(2);
  EXPECT_FALSE(f.done());
  f.SwitchIn(&main_sp);
  order.push_back(4);
  f.SwitchIn(&main_sp);
  EXPECT_TRUE(f.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, PreservesLocalsAcrossSwitches) {
  void* main_sp = nullptr;
  Fiber* fp = nullptr;
  long long sum = 0;
  Fiber f([&] {
    long long local = 42;
    std::vector<int> heap_state{1, 2, 3};
    Fiber::SwitchOut(fp->mutable_sp(), main_sp);
    local += std::accumulate(heap_state.begin(), heap_state.end(), 0);
    sum = local;
  });
  fp = &f;
  f.SwitchIn(&main_sp);
  f.SwitchIn(&main_sp);
  EXPECT_EQ(sum, 48);
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kN = 50;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> counts(kN, 0);
  // Pre-sized so the self-pointer slots stay at stable addresses while the
  // fibers below capture them.
  std::vector<Fiber*> selves(kN, nullptr);
  void* main_sp = nullptr;
  for (int i = 0; i < kN; ++i) {
    Fiber** self = &selves[i];
    fibers.push_back(std::make_unique<Fiber>([&counts, i, self, &main_sp] {
      for (int round = 0; round < 3; ++round) {
        counts[i]++;
        Fiber::SwitchOut((*self)->mutable_sp(), main_sp);
      }
    }));
    *self = fibers.back().get();
  }
  // Round-robin until all done.
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->done()) {
        f->SwitchIn(&main_sp);
        any = true;
      }
    }
  }
  for (int i = 0; i < kN; ++i) EXPECT_EQ(counts[i], 3);
}

// ------------------------------------------------------------ Simulator

TEST(SimPlatform, RunsAllCores) {
  SimPlatform sim(4);
  std::vector<int> ran(4, 0);
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(i, [&ran, i] { ran[i] = 1; });
  }
  sim.Run();
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 4);
}

TEST(SimPlatform, CurrentCoreIdentity) {
  SimPlatform sim(3);
  std::vector<int> observed(3, -1);
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(i, [&observed, i] { observed[i] = CoreId(); });
  }
  sim.Run();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(observed[i], i);
  EXPECT_EQ(CoreId(), -1);  // not on a core here
}

TEST(SimPlatform, ConsumeCyclesAdvancesLocalClock) {
  SimPlatform sim(1);
  Cycles before = 0, after = 0;
  sim.Spawn(0, [&] {
    before = Now();
    ConsumeCycles(1000);
    after = Now();
  });
  sim.Run();
  EXPECT_EQ(after - before, 1000u);
}

TEST(SimPlatform, VirtualTimeOrdersExecution) {
  // Core 0 does a lot of work then writes; core 1 does little work then
  // writes. In virtual-time order core 1's write must land first even
  // though core 0 was spawned first.
  SimPlatform sim(2);
  std::vector<int> order;
  Atomic<std::uint64_t> sync;  // forces a scheduling point
  sim.Spawn(0, [&] {
    ConsumeCycles(100000);
    sync.fetch_add(1);
    order.push_back(0);
  });
  sim.Spawn(1, [&] {
    ConsumeCycles(10);
    sync.fetch_add(1);
    order.push_back(1);
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(SimPlatform, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimPlatform sim(8);
    std::uint64_t checksum = 0;
    Atomic<std::uint64_t> counter;
    for (int i = 0; i < 8; ++i) {
      sim.Spawn(i, [&, i] {
        for (int k = 0; k < 100; ++k) {
          std::uint64_t v = counter.fetch_add(1);
          checksum = checksum * 31 + v * (i + 1);
          ConsumeCycles(10 + i);
        }
      });
    }
    sim.Run();
    return std::make_pair(checksum, sim.GlobalClock());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SimPlatform, LocalHitCheaperThanRemote) {
  SimConfig cfg;
  SimPlatform sim(2, cfg);
  Atomic<std::uint64_t> shared;
  Cycles local_cost = 0, remote_cost = 0;
  sim.Spawn(0, [&] {
    shared.store(1);  // take ownership
    Cycles t0 = Now();
    shared.store(2);  // exclusive local write
    local_cost = Now() - t0;
  });
  sim.Spawn(1, [&] {
    ConsumeCycles(100000);  // run strictly after core 0
    Cycles t0 = Now();
    shared.store(3);  // remote: line owned by core 0
    remote_cost = Now() - t0;
  });
  sim.Run();
  EXPECT_LT(local_cost, remote_cost);  // store-buffer cost > exclusive L1 hit
}

TEST(SimPlatform, ContendedRmwSerializes) {
  // N cores hammering one line: total virtual time must be at least
  // N_ops * rmw_service_cycles (the line is a serial resource).
  SimConfig cfg;
  constexpr int kCores = 8;
  constexpr int kOpsPerCore = 200;
  SimPlatform sim(kCores, cfg);
  Atomic<std::uint64_t> hot;
  for (int i = 0; i < kCores; ++i) {
    sim.Spawn(i, [&] {
      for (int k = 0; k < kOpsPerCore; ++k) hot.fetch_add(1);
    });
  }
  sim.Run();
  EXPECT_EQ(hot.RawLoad(), static_cast<std::uint64_t>(kCores * kOpsPerCore));
  EXPECT_GE(sim.GlobalClock(),
            static_cast<Cycles>(kCores * kOpsPerCore) *
                cfg.rmw_service_cycles);
}

TEST(SimPlatform, UncontendedLinesScaleLinearly) {
  // Each core hammering its own line: makespan should be roughly the
  // single-core cost, far below the serialized cost.
  SimConfig cfg;
  constexpr int kCores = 8;
  constexpr int kOps = 200;
  SimPlatform sim(kCores, cfg);
  std::vector<std::unique_ptr<Atomic<std::uint64_t>>> lines;
  for (int i = 0; i < kCores; ++i) {
    lines.push_back(std::make_unique<Atomic<std::uint64_t>>());
  }
  for (int i = 0; i < kCores; ++i) {
    sim.Spawn(i, [&, i] {
      for (int k = 0; k < kOps; ++k) lines[i]->fetch_add(1);
    });
  }
  sim.Run();
  // Serial execution would take kCores * kOps * service; private lines
  // should finish in well under half of that.
  EXPECT_LT(sim.GlobalClock(),
            static_cast<Cycles>(kCores) * kOps * cfg.rmw_service_cycles / 2);
}

TEST(SimPlatform, SpinLockMutualExclusionAndProgress) {
  constexpr int kCores = 6;
  constexpr int kIters = 300;
  SimPlatform sim(kCores);
  SpinLock lock;
  std::uint64_t plain_counter = 0;  // protected by `lock`
  for (int i = 0; i < kCores; ++i) {
    sim.Spawn(i, [&] {
      for (int k = 0; k < kIters; ++k) {
        lock.Lock();
        plain_counter++;
        ConsumeCycles(20);
        lock.Unlock();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(plain_counter, static_cast<std::uint64_t>(kCores * kIters));
}

TEST(SimPlatform, StatsCountAccesses) {
  SimPlatform sim(2);
  Atomic<std::uint64_t> a;
  sim.Spawn(0, [&] {
    a.store(1);
    (void)a.load();
  });
  sim.Spawn(1, [&] { ConsumeCycles(10000); (void)a.load(); });
  sim.Run();
  EXPECT_EQ(sim.stats().atomic_stores, 1u);
  EXPECT_EQ(sim.stats().atomic_reads, 2u);
  EXPECT_GE(sim.stats().remote_transfers, 1u);
}

// The modeled-cost hooks skip the platform on native cores only: on a sim
// core ConsumeCycles still moves the clock by exactly n, and a hal::Atomic
// access is still charged and counted.
TEST(SimPlatform, ModeledHooksReachSimCores) {
  SimPlatform sim(1);
  Atomic<std::uint64_t> a;
  bool simulated = false;
  Cycles before = 0, after = 0;
  sim.Spawn(0, [&] {
    simulated = CurrentCore()->simulated;
    before = Now();
    ConsumeCycles(12345);
    after = Now();
    (void)a.load();
  });
  sim.Run();
  EXPECT_TRUE(simulated);
  EXPECT_EQ(after - before, 12345u);
  EXPECT_EQ(sim.stats().atomic_reads, 1u);
}

// ConsumeCycles reports the cycles it modelled: n on a sim core, so a
// caller can move declared work out of a timed span without a clock read.
TEST(SimPlatform, ConsumeCyclesReturnsModelledCycles) {
  SimPlatform sim(1);
  Cycles returned = 0;
  sim.Spawn(0, [&] { returned = ConsumeCycles(777); });
  sim.Run();
  EXPECT_EQ(returned, 777u);
  EXPECT_EQ(ConsumeCycles(777), 0u);  // off-core: nothing modelled
}

TEST(SimPlatform, IdleBackoffAdvancesTime) {
  SimPlatform sim(1);
  Cycles elapsed = 0;
  sim.Spawn(0, [&] {
    IdleBackoff backoff(/*cap=*/1024);
    Cycles t0 = Now();
    for (int i = 0; i < 20; ++i) backoff.Idle();
    elapsed = Now() - t0;
  });
  sim.Run();
  // 20 idles with exponential backoff capped at 1024 plus relax costs.
  EXPECT_GT(elapsed, 1024u * 10);
}

// --------------------------------------------------------------- Native

TEST(NativePlatform, RunsAllCoresConcurrently) {
  constexpr int kThreads = 4;
  NativePlatform native(kThreads);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < kThreads; ++i) {
    native.Spawn(i, [&] {
      started.fetch_add(1);
      finished.fetch_add(1);
    });
  }
  native.Run();
  EXPECT_EQ(finished.load(), kThreads);
}

TEST(NativePlatform, AtomicIsActuallyAtomic) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  NativePlatform native(kThreads);
  Atomic<std::uint64_t> counter;
  for (int i = 0; i < kThreads; ++i) {
    native.Spawn(i, [&] {
      for (int k = 0; k < kIters; ++k) counter.fetch_add(1);
    });
  }
  native.Run();
  EXPECT_EQ(counter.RawLoad(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(NativePlatform, SpinLockMutualExclusion) {
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  NativePlatform native(kThreads);
  SpinLock lock;
  std::uint64_t counter = 0;
  for (int i = 0; i < kThreads; ++i) {
    native.Spawn(i, [&] {
      for (int k = 0; k < kIters; ++k) {
        SpinLockGuard g(lock);
        counter++;
      }
    });
  }
  native.Run();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(NativePlatform, NowIsMonotonic) {
  NativePlatform native(1);
  bool monotonic = true;
  native.Spawn(0, [&] {
    Cycles prev = Now();
    for (int i = 0; i < 1000; ++i) {
      Cycles t = Now();
      if (t < prev) monotonic = false;
      prev = t;
    }
  });
  native.Run();
  EXPECT_TRUE(monotonic);
}

// Now() ticks converted with CyclesPerSecond() measure the same interval
// as steady_clock, so native cycle counts mean seconds.
TEST(NativePlatform, ClockRateMatchesSteadyClock) {
  NativePlatform native(1);
  bool simulated = true;
  double ticks = 0;
  double seconds = 0;
  native.Spawn(0, [&] {
    simulated = CurrentCore()->simulated;
    const auto t0 = std::chrono::steady_clock::now();
    const Cycles c0 = Now();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const Cycles c1 = Now();
    const auto t1 = std::chrono::steady_clock::now();
    ticks = static_cast<double>(c1 - c0);
    seconds = std::chrono::duration<double>(t1 - t0).count();
  });
  native.Run();
  EXPECT_FALSE(simulated);
  ASSERT_GE(seconds, 0.05);
  EXPECT_NEAR(ticks / native.CyclesPerSecond(), seconds, 0.1 * seconds);
}

// A native core models nothing: ConsumeCycles returns 0, so the declared
// work it skips is never subtracted from a measured span.
TEST(NativePlatform, ConsumeCyclesModelsNothing) {
  NativePlatform native(1);
  Cycles returned = ~Cycles{0};
  native.Spawn(0, [&] { returned = ConsumeCycles(777); });
  native.Run();
  EXPECT_EQ(returned, 0u);
}

// Readings count from platform construction, not from boot: trace spans
// are placed on a timeline that starts when the platform was created.
TEST(NativePlatform, NowCountsFromConstruction) {
  NativePlatform native(1);
  Cycles first = ~Cycles{0};
  native.Spawn(0, [&] { first = Now(); });
  native.Run();
  EXPECT_LT(static_cast<double>(first), 1.0 * native.CyclesPerSecond());
}

}  // namespace
}  // namespace orthrus::hal
