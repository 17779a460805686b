// Tests for the shared-everything lock table and the three deadlock
// policies: grant compatibility, FIFO fairness, wake-ups, wait-die ordering
// rules, and forced-deadlock detection for the graph-based schemes.
#include <memory>

#include <gtest/gtest.h>

#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "lock/lock_table.h"
#include "sim_env.h"

namespace orthrus::lock {
namespace {

using txn::LockMode;

LockTable::Config SmallConfig() {
  LockTable::Config c;
  c.num_buckets = 256;
  c.max_workers = 8;
  return c;
}

// Single-threaded grant-path tests (no platform needed: everything is
// immediate when uncontended).
class LockTableBasic : public ::testing::Test {
 protected:
  LockTableBasic() : table_(SmallConfig()) {
    for (int i = 0; i < 4; ++i) {
      ctx_[i] = table_.RegisterWorker(i, &stats_[i]);
      ctx_[i]->txn_timestamp = 100 + i;  // worker 0 oldest
    }
  }
  LockTable table_;
  WorkerStats stats_[4];
  WorkerLockCtx* ctx_[4];
};

TEST_F(LockTableBasic, ExclusiveGrantsImmediately) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.HeldCount(ctx_[0]), 1u);
  table_.ReleaseAll(ctx_[0]);
  EXPECT_EQ(table_.HeldCount(ctx_[0]), 0u);
}

TEST_F(LockTableBasic, SharedLocksCoexist) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  table_.ReleaseAll(ctx_[0]);
  table_.ReleaseAll(ctx_[1]);
  table_.ReleaseAll(ctx_[2]);
}

TEST_F(LockTableBasic, WriterBlocksBehindReader) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 42, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 42, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  EXPECT_EQ(stats_[1].lock_waits, 1u);
}

TEST_F(LockTableBasic, ReaderBlocksBehindWaitingWriterFifo) {
  // S held; X waits; a later S must NOT bypass the X (FIFO, no starvation).
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 7, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 7, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 7, LockMode::kShared, nullptr),
            LockTable::AcquireResult::kWaiting);
}

TEST_F(LockTableBasic, DistinctKeysIndependent) {
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 2, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table_.Acquire(ctx_[2], 2, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);  // same key, other table
}

TEST_F(LockTableBasic, LockHeadsAreReused) {
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(table_.Acquire(ctx_[0], 1, 5, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    table_.ReleaseAll(ctx_[0]);
  }
  EXPECT_EQ(table_.lock_heads_allocated(), 1u);
}

// --- wait-die decision rules (single-threaded: we inspect the immediate
// result of Acquire).

TEST_F(LockTableBasic, WaitDieOlderWaitsOnYounger) {
  WaitDiePolicy policy;
  ctx_[1]->txn_timestamp = 200;  // younger holder
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[0]->txn_timestamp = 100;  // older requester
  EXPECT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kWaiting);
}

TEST_F(LockTableBasic, WaitDieYoungerDies) {
  WaitDiePolicy policy;
  ctx_[0]->txn_timestamp = 100;  // older holder
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[1]->txn_timestamp = 200;  // younger requester
  EXPECT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kDie);
  EXPECT_EQ(table_.HeldCount(ctx_[1]), 0u);
}

TEST_F(LockTableBasic, WaitDieDieReleasesQueueSlot) {
  WaitDiePolicy policy;
  ctx_[0]->txn_timestamp = 100;
  ASSERT_EQ(table_.Acquire(ctx_[0], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
  ctx_[1]->txn_timestamp = 200;
  ASSERT_EQ(table_.Acquire(ctx_[1], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kDie);
  // The dead request must not block future grants.
  table_.ReleaseAll(ctx_[0]);
  EXPECT_EQ(table_.Acquire(ctx_[2], 1, 9, LockMode::kExclusive, &policy),
            LockTable::AcquireResult::kGranted);
}

// --- Multi-core scenarios on the simulator (deterministic).

TEST(LockTableSim, ReleaseWakesWaiterFifo) {
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  std::vector<int> order;
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 5, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);  // hold while core 1 queues up
    order.push_back(0);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);  // ensure core 0 already holds
    auto r = table.Acquire(c1, 1, 5, LockMode::kExclusive, nullptr);
    if (r == LockTable::AcquireResult::kWaiting) {
      ASSERT_TRUE(table.Wait(c1, nullptr));
    }
    order.push_back(1);
    table.ReleaseAll(c1);
  });
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(stats[1].lock_waits, 1u);
  // The wait read no clock and charged no time: the caller's cursor times
  // it (LockingStrategy.ALockWaitIsChargedAsWaiting in runtime_test).
  EXPECT_EQ(sim.stats().clock_reads[1], 0u);
  EXPECT_EQ(stats[1].Get(TimeCategory::kWaiting), 0u);
}

// Forces a true deadlock (0 holds A wants B; 1 holds B wants A) and checks
// each detection policy resolves it: at least one worker aborts and both
// finish.
template <typename Policy>
void RunForcedDeadlock(Policy* policy) {
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerLockCtx* ctx[2] = {table.RegisterWorker(0, &stats[0]),
                           table.RegisterWorker(1, &stats[1])};
  ctx[0]->txn_timestamp = 1;
  ctx[1]->txn_timestamp = 2;
  int aborts = 0;
  auto worker = [&](int me, std::uint64_t first, std::uint64_t second) {
    ASSERT_EQ(table.Acquire(ctx[me], 1, first, LockMode::kExclusive, policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(5000);  // let both sides take their first lock
    auto r = table.Acquire(ctx[me], 1, second, LockMode::kExclusive, policy);
    if (r == LockTable::AcquireResult::kWaiting) {
      if (!table.Wait(ctx[me], policy)) aborts++;
    } else if (r == LockTable::AcquireResult::kDie) {
      aborts++;
    }
    table.ReleaseAll(ctx[me]);
  };
  sim.Spawn(0, [&] { worker(0, 100, 200); });
  sim.Spawn(1, [&] { worker(1, 200, 100); });
  sim.Run();  // termination itself proves the deadlock was broken
  EXPECT_GE(aborts, 1);
}

TEST(LockTableSim, DreadlocksDetectsForcedDeadlock) {
  DreadlocksPolicy policy;
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, WaitForGraphDetectsForcedDeadlock) {
  WaitForGraphPolicy policy(8);
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, WaitDieAvoidsForcedDeadlock) {
  WaitDiePolicy policy;
  RunForcedDeadlock(&policy);
}

TEST(LockTableSim, SharedReadersProceedConcurrently) {
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::SimPlatform sim(4, SimConfigFromEnv());
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(i, [&, i] {
      for (int round = 0; round < 50; ++round) {
        auto r = table.Acquire(ctx[i], 1, 7, LockMode::kShared, nullptr);
        if (r == LockTable::AcquireResult::kWaiting) {
          ASSERT_TRUE(table.Wait(ctx[i], nullptr));
        }
        hal::ConsumeCycles(50);
        table.ReleaseAll(ctx[i]);
      }
      completed++;
    });
  }
  sim.Run();
  EXPECT_EQ(completed, 4);
  // Readers never conflict: no one should have waited.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(stats[i].lock_waits, 0u);
}

TEST(LockTableNative, MutualExclusionUnderRealThreads) {
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::NativePlatform platform(4);
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  std::uint64_t counter = 0;  // protected by lock (1, 99)
  constexpr int kIters = 2000;
  for (int i = 0; i < 4; ++i) {
    platform.Spawn(i, [&, i] {
      for (int round = 0; round < kIters; ++round) {
        auto r = table.Acquire(ctx[i], 1, 99, LockMode::kExclusive, nullptr);
        if (r == LockTable::AcquireResult::kWaiting) {
          ASSERT_TRUE(table.Wait(ctx[i], nullptr));
        }
        counter++;
        table.ReleaseAll(ctx[i]);
      }
    });
  }
  platform.Run();
  EXPECT_EQ(counter, 4ull * kIters);
}

TEST(LockTableNative, WaitDieStressEventuallyAllCommit) {
  // High-conflict loop with wait-die: every worker must finish its quota
  // despite aborts (no livelock thanks to age retention).
  LockTable table(SmallConfig());
  WorkerStats stats[4];
  hal::NativePlatform platform(4);
  WaitDiePolicy policy;
  WorkerLockCtx* ctx[4];
  for (int i = 0; i < 4; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  std::uint64_t commits[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    platform.Spawn(i, [&, i] {
      std::uint64_t ts = i + 1;
      while (commits[i] < 300) {
        ctx[i]->txn_timestamp = ts;
        bool ok = true;
        for (std::uint64_t key : {7ull, 8ull}) {
          auto r = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                 &policy);
          if (r == LockTable::AcquireResult::kDie) {
            ok = false;
            break;
          }
          if (r == LockTable::AcquireResult::kWaiting &&
              !table.Wait(ctx[i], &policy)) {
            ok = false;
            break;
          }
        }
        table.ReleaseAll(ctx[i]);
        if (ok) {
          commits[i]++;
          ts += 4;  // fresh, still unique timestamp for the next txn
        }
        // Aborted txns retry with the same timestamp: eventual progress.
      }
    });
  }
  platform.Run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(commits[i], 300u);
}

// --- Additional edge cases -------------------------------------------

TEST(LockTableEdge, SingleWorkerReacquiresFreely) {
  LockTable table(SmallConfig());
  WorkerStats stats;
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerLockCtx* ctx = table.RegisterWorker(0, &stats);
  sim.Spawn(0, [&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(table.Acquire(ctx, 1, i % 7, LockMode::kExclusive, nullptr),
                LockTable::AcquireResult::kGranted);
      table.ReleaseAll(ctx);
    }
  });
  sim.Run();
  EXPECT_EQ(stats.lock_waits, 0u);
}

TEST(LockTableEdge, DreadlocksDigestResetBetweenTransactions) {
  // After a wait ends, the published digest must collapse back to the
  // worker's own bit — stale closure bits would seed false positives in
  // later transactions.
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  DreadlocksPolicy policy;
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 5, LockMode::kExclusive, &policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);
    auto r = table.Acquire(c1, 1, 5, LockMode::kExclusive, &policy);
    ASSERT_EQ(r, LockTable::AcquireResult::kWaiting);
    ASSERT_TRUE(table.Wait(c1, &policy));
    table.ReleaseAll(c1);
  });
  sim.Run();
  // Worker 1 waited on worker 0; afterwards its digest is just {1}.
  EXPECT_EQ(c1->digest_lo.RawLoad(), 1ull << 1);
  EXPECT_EQ(c1->digest_hi.RawLoad(), 0u);
}

TEST(LockTableEdge, WaitForGraphEdgeClearedAfterGrant) {
  LockTable table(SmallConfig());
  WorkerStats stats[2];
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerLockCtx* c0 = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* c1 = table.RegisterWorker(1, &stats[1]);
  WaitForGraphPolicy policy(2);
  sim.Spawn(0, [&] {
    ASSERT_EQ(table.Acquire(c0, 1, 9, LockMode::kExclusive, &policy),
              LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(20000);
    table.ReleaseAll(c0);
  });
  sim.Spawn(1, [&] {
    hal::ConsumeCycles(1000);
    auto r = table.Acquire(c1, 1, 9, LockMode::kExclusive, &policy);
    ASSERT_EQ(r, LockTable::AcquireResult::kWaiting);
    ASSERT_TRUE(table.Wait(c1, &policy));
    table.ReleaseAll(c1);
  });
  sim.Run();
  EXPECT_EQ(c1->waits_for.RawLoad(), 0u);
}

TEST(LockTableEdge, QueueCountersBalanceAfterChurn) {
  // Grant/abort/release churn must leave every queue empty: re-acquiring
  // exclusively must succeed instantly for every key touched.
  LockTable table(SmallConfig());
  WorkerStats stats[3];
  hal::SimPlatform sim(3, SimConfigFromEnv());
  WorkerLockCtx* ctx[3];
  for (int i = 0; i < 3; ++i) ctx[i] = table.RegisterWorker(i, &stats[i]);
  WaitDiePolicy policy;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(i, [&, i] {
      std::uint64_t ts = i + 1;
      for (int round = 0; round < 200; ++round) {
        ctx[i]->txn_timestamp = ts;
        bool ok = true;
        for (std::uint64_t key : {3ull, 4ull, 5ull}) {
          auto r = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                 &policy);
          if (r == LockTable::AcquireResult::kDie ||
              (r == LockTable::AcquireResult::kWaiting &&
               !table.Wait(ctx[i], &policy))) {
            ok = false;
            break;
          }
        }
        table.ReleaseAll(ctx[i]);
        if (ok) ts += 3;
      }
    });
  }
  sim.Run();
  // All queues drained: fresh exclusive acquisitions are instant.
  WorkerStats post;
  WorkerLockCtx* probe = table.RegisterWorker(3, &post);
  hal::SimPlatform sim2(1);
  sim2.Spawn(0, [&] {
    for (std::uint64_t key : {3ull, 4ull, 5ull}) {
      EXPECT_EQ(table.Acquire(probe, 1, key, LockMode::kExclusive, nullptr),
                LockTable::AcquireResult::kGranted);
    }
    table.ReleaseAll(probe);
  });
  sim2.Run();
  EXPECT_EQ(post.lock_waits, 0u);
}

TEST(LockTableEdge, VacantHeadServesNextKeyInBucket) {
  // One bucket: every key shares a chain. A head whose queue emptied takes
  // the next key, so the chain grows only with locks live at the same time.
  LockTable::Config c = SmallConfig();
  c.num_buckets = 1;
  LockTable table(c);
  WorkerStats stats[2];
  WorkerLockCtx* a = table.RegisterWorker(0, &stats[0]);
  WorkerLockCtx* b = table.RegisterWorker(1, &stats[1]);
  for (std::uint64_t key = 0; key < 100; ++key) {
    ASSERT_EQ(table.Acquire(a, 1, key, LockMode::kExclusive, nullptr),
              LockTable::AcquireResult::kGranted);
    table.ReleaseAll(a);
  }
  EXPECT_EQ(table.lock_heads_allocated(), 1u);
  // Two live locks need two heads; a live head is never relabeled, so the
  // holder of key 1 still blocks a second request for it.
  ASSERT_EQ(table.Acquire(a, 1, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  ASSERT_EQ(table.Acquire(b, 1, 2, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.lock_heads_allocated(), 2u);
  table.ReleaseAll(b);
  ASSERT_EQ(table.Acquire(b, 1, 3, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kGranted);
  EXPECT_EQ(table.Acquire(b, 1, 1, LockMode::kExclusive, nullptr),
            LockTable::AcquireResult::kWaiting);
  EXPECT_EQ(table.lock_heads_allocated(), 2u);
}

TEST(LockTableEdge, LockHeadsStayBoundedOverManyKeys) {
  // Every transaction takes two keys no earlier one took, then two keys of
  // a four-key hot set, where wait-die kills the younger of two rivals.
  // Heads are kept only for live or vacated locks, so the table grows with
  // the locks live at once, not with the keys a run touches.
  constexpr int kWorkers = 3;
  constexpr int kRounds = 2000;
  constexpr std::uint64_t kKeysPerTxn = 4;
  constexpr std::uint64_t kHotKeys = 4;
  LockTable::Config c = SmallConfig();
  c.num_buckets = 16;
  LockTable table(c);
  WorkerStats stats[kWorkers];
  hal::SimPlatform sim(kWorkers, SimConfigFromEnv());
  WorkerLockCtx* ctx[kWorkers];
  for (int i = 0; i < kWorkers; ++i) {
    ctx[i] = table.RegisterWorker(i, &stats[i]);
  }
  WaitDiePolicy policy;
  int aborts = 0;
  for (int i = 0; i < kWorkers; ++i) {
    sim.Spawn(i, [&, i] {
      std::uint64_t ts = i + 1;
      for (int round = 0; round < kRounds; ++round) {
        ctx[i]->txn_timestamp = ts;
        const std::uint64_t r = static_cast<std::uint64_t>(round);
        const std::uint64_t fresh =
            kHotKeys + 2 * (r * kWorkers + static_cast<std::uint64_t>(i));
        bool ok = true;
        for (std::uint64_t key :
             {fresh, fresh + 1, r % kHotKeys, (r + 1) % kHotKeys}) {
          auto res = table.Acquire(ctx[i], 1, key, LockMode::kExclusive,
                                   &policy);
          if (res == LockTable::AcquireResult::kDie ||
              (res == LockTable::AcquireResult::kWaiting &&
               !table.Wait(ctx[i], &policy))) {
            ok = false;
            break;
          }
        }
        hal::ConsumeCycles(200);  // hold the locks for the "logic"
        table.ReleaseAll(ctx[i]);
        if (ok) {
          ts += kWorkers;
        } else {
          aborts++;
        }
      }
    });
  }
  sim.Run();
  EXPECT_GT(aborts, 0);

  // A bucket's chain never holds more heads than its peak of locks live at
  // once, and no more than kWorkers * kKeysPerTxn are ever live.
  const std::uint64_t keys_touched =
      kHotKeys + 2ull * kWorkers * static_cast<std::uint64_t>(kRounds);
  const std::uint64_t heads = table.lock_heads_allocated();
  const std::uint64_t bound = c.num_buckets * kWorkers * kKeysPerTxn;
  EXPECT_GT(heads, 0u);
  EXPECT_LE(heads, bound);
  EXPECT_GE(keys_touched, 10 * bound);

  // Every queue drained: each key touched is granted at once, and a drained
  // table serves all of them from the heads it already has.
  WorkerStats post;
  WorkerLockCtx* probe = table.RegisterWorker(kWorkers, &post);
  hal::SimPlatform sim2(1);
  sim2.Spawn(0, [&] {
    for (std::uint64_t key = 0; key < keys_touched; ++key) {
      EXPECT_EQ(table.Acquire(probe, 1, key, LockMode::kExclusive, nullptr),
                LockTable::AcquireResult::kGranted);
      table.ReleaseAll(probe);
    }
  });
  sim2.Run();
  EXPECT_EQ(post.lock_waits, 0u);
  EXPECT_EQ(table.lock_heads_allocated(), heads);
}

}  // namespace
}  // namespace orthrus::lock
