// Integration tests: every engine runs real workloads on both platforms and
// must preserve serializability invariants (no lost updates, consistent
// TPC-C aggregates), terminate cleanly, and report sane statistics.
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "sim_env.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus {
namespace {

using engine::DeadlockFreeEngine;
using engine::DeadlockPolicyKind;
using engine::EngineOptions;
using engine::OrthrusEngine;
using engine::OrthrusOptions;
using engine::PartitionedEngine;
using engine::TwoPlEngine;
using workload::KvConfig;
using workload::KvWorkload;

std::unique_ptr<hal::Platform> MakePlatform(bool simulated, int cores) {
  if (simulated) {
    return std::make_unique<hal::SimPlatform>(cores, SimConfigFromEnv());
  }
  return std::make_unique<hal::NativePlatform>(cores);
}

EngineOptions SmallRun(int cores) {
  EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = 0.05;    // generous deadline; the txn cap binds first
  o.max_txns_per_worker = 150;
  return o;
}

KvConfig SmallKv(int partitions) {
  KvConfig c;
  c.num_records = 5000;
  c.row_bytes = 64;
  c.ops_per_txn = 10;
  c.num_partitions = partitions;
  return c;
}

// Runs the engine on a fresh database and checks the RMW counter invariant:
// every committed transaction bumped exactly ops_per_txn distinct row
// counters, and aborted attempts left no trace.
void RunKvAndCheck(engine::Engine* eng, KvWorkload* wl, bool simulated,
                   int cores, std::uint64_t* committed_out = nullptr) {
  storage::Database db;
  wl->Load(&db, 1);
  auto platform = MakePlatform(simulated, cores);
  RunResult result = eng->Run(platform.get(), &db, *wl);
  EXPECT_GT(result.total.committed, 0u) << eng->name();
  if (!wl->config().read_only) {
    EXPECT_EQ(wl->SumCounters(db),
              result.total.committed * wl->config().ops_per_txn)
        << "lost or phantom updates in " << eng->name();
  }
  EXPECT_GT(result.elapsed_seconds, 0.0);
  if (committed_out != nullptr) *committed_out = result.total.committed;
}

struct PlatformCase {
  bool simulated;
  const char* name;
};

class EnginesOnPlatform : public ::testing::TestWithParam<PlatformCase> {};

INSTANTIATE_TEST_SUITE_P(
    Platforms, EnginesOnPlatform,
    ::testing::Values(PlatformCase{true, "sim"}, PlatformCase{false, "native"}),
    [](const ::testing::TestParamInfo<PlatformCase>& info) {
      return info.param.name;
    });

// ----------------------------------------------------------------- 2PL

TEST_P(EnginesOnPlatform, TwoPlWaitDieLowContention) {
  KvWorkload wl(SmallKv(1));
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

TEST_P(EnginesOnPlatform, TwoPlWaitDieHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;  // heavy conflicts: aborts and restarts exercised
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

// Every worker's Figure-10 split fits in the run: no category exceeds the
// elapsed cycles (which bound each worker's own), and the three sum to no
// more (a sum over it is time charged twice) and to at least `min_fill` of
// them (a sum under it is time charged to no category).
void ExpectTimeFitsElapsed(const RunResult& r, double min_fill = 0) {
  const double elapsed = r.elapsed_seconds * r.cycles_per_second + 1;
  for (std::size_t w = 0; w < r.per_worker.size(); ++w) {
    const WorkerStats& s = r.per_worker[w];
    double sum = 0;
    for (int c = 0; c < static_cast<int>(TimeCategory::kCount); ++c) {
      const double v = static_cast<double>(s.cycles[c]);
      EXPECT_LE(v, elapsed) << "worker " << w << " category " << c;
      sum += v;
    }
    EXPECT_LE(sum, elapsed) << "worker " << w;
    EXPECT_GE(sum, min_fill * elapsed) << "worker " << w;
  }
}

// 2PL times its attempts by phase. Under wait-die at high contention both
// lock categories show on the sim, and the declared per-access work (the
// modelled cycles of every committed access, at least) stays execution.
TEST_P(EnginesOnPlatform, TwoPlWaitDieTimeFitsElapsed) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  storage::Database db;
  wl.Load(&db, 1);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  ExpectTimeFitsElapsed(r);
  if (!GetParam().simulated) return;
  const storage::Table* table = db.GetTable(KvWorkload::kTableId);
  const hal::Cycles op_cost =
      table->RowAccessCost() + table->cost_model().op_compute_cycles;
  for (std::size_t w = 0; w < r.per_worker.size(); ++w) {
    const WorkerStats& s = r.per_worker[w];
    EXPECT_GT(s.Get(TimeCategory::kLocking), 0u) << "worker " << w;
    EXPECT_GT(s.Get(TimeCategory::kWaiting), 0u) << "worker " << w;
    EXPECT_GE(s.Get(TimeCategory::kExecution),
              s.committed * c.ops_per_txn * op_cost)
        << "worker " << w;
  }
}

TEST_P(EnginesOnPlatform, TwoPlWaitForGraphHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitForGraph);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

TEST_P(EnginesOnPlatform, TwoPlDreadlocksHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kDreadlocks);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

TEST_P(EnginesOnPlatform, TwoPlReadOnlyNeverAborts) {
  KvConfig c = SmallKv(1);
  c.read_only = true;
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kDreadlocks);
  storage::Database db;
  wl.Load(&db, 1);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.aborted, 0u);  // readers never conflict
  EXPECT_EQ(r.total.deadlocks, 0u);
}

// -------------------------------------------------------- deadlock-free

TEST_P(EnginesOnPlatform, DeadlockFreeNeverAborts) {
  KvConfig c = SmallKv(1);
  c.hot_records = 8;  // extreme contention, still zero aborts
  KvWorkload wl(c);
  DeadlockFreeEngine eng(SmallRun(4));
  storage::Database db;
  wl.Load(&db, 1);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.aborted, 0u);
  EXPECT_EQ(r.total.deadlocks, 0u);
  EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);
  ExpectTimeFitsElapsed(r);
}

TEST_P(EnginesOnPlatform, DeadlockFreeTwoOfFourPartitions) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 2;
  KvWorkload wl(c);
  DeadlockFreeEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

// ---------------------------------------------------- partitioned-store

TEST_P(EnginesOnPlatform, PartitionedStoreSinglePartition) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 1;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

TEST_P(EnginesOnPlatform, PartitionedStoreMultiPartition) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

TEST_P(EnginesOnPlatform, PartitionedStorePctMultiMix) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kPctMulti;
  c.pct_multi = 30;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4);
}

// ------------------------------------------------------------- time fill

// The thread-per-transaction engines read the clock only through their
// worker's SpanClock, backoffs and replans included, so on the sim each
// worker's three categories fill its whole run. Deadline-bound with no
// commit cap, so every worker runs until the deadline; at 16 hot keys
// wait-die restarts often, and its backoffs must be charged too.
TEST(TimeFill, ThreadPerTxnEnginesChargeEveryCycle) {
  constexpr int kCores = 4;
  EngineOptions o;
  o.num_cores = kCores;
  o.duration_seconds = 0.002;
  struct Case {
    const char* name;
    std::function<std::unique_ptr<engine::Engine>()> make;
    int partitions;
  };
  const Case cases[] = {
      {"2pl-waitdie",
       [&] {
         return std::make_unique<TwoPlEngine>(o, DeadlockPolicyKind::kWaitDie);
       },
       1},
      {"2pl-waitforgraph",
       [&] {
         return std::make_unique<TwoPlEngine>(
             o, DeadlockPolicyKind::kWaitForGraph);
       },
       1},
      {"2pl-dreadlocks",
       [&] {
         return std::make_unique<TwoPlEngine>(o,
                                              DeadlockPolicyKind::kDreadlocks);
       },
       1},
      {"deadlock-free",
       [&] { return std::make_unique<DeadlockFreeEngine>(o); }, 1},
      {"partitioned-store",
       [&] { return std::make_unique<PartitionedEngine>(o); }, kCores},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    KvConfig kv = SmallKv(c.partitions);
    kv.hot_records = 16;
    KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    hal::SimPlatform sim(kCores);
    const RunResult r = c.make()->Run(&sim, &db, wl);
    EXPECT_GT(r.total.committed, 0u);
    EXPECT_EQ(wl.SumCounters(db), r.total.committed * kv.ops_per_txn);
    ExpectTimeFitsElapsed(r, 0.99);
  }
}

TEST(PartitionedStoreDeathTest, PartitionerCountMustEqualWorkers) {
  KvWorkload wl(SmallKv(2));  // partitioner().n = 2 against 4 workers
  storage::Database db;
  wl.Load(&db, 1);
  PartitionedEngine eng(SmallRun(4));
  hal::SimPlatform sim(4);
  EXPECT_DEATH(eng.Run(&sim, &db, wl),
               "partitioner\\(\\)\\.n must equal the worker count");
}

// ------------------------------------------------------- clock readings

// Per-core clock reads on the sim (SimStats::clock_reads) for one worker
// run. Every worker also reads the clock twice in WorkerClock, at begin and
// finish.
constexpr std::uint64_t kWorkerClockReads = 2;

// A thread-per-transaction commit reads the clock five times: Admit's
// post-plan stamp, the driver's end of row resolution, whose reading starts
// the attempt, and the ends of the strategy's acquire, logic and release
// phases; the release-end reading stamps the commit latency and gates the
// next admission. A 2PL abort reads twice in the attempt (acquire and
// release ends) and once after the backoff, and its retry keeps its rows;
// a lock wait reads twice. Under wait-die every abort is a request that
// died instead of waiting, which lock_waits counts with the waits.
TEST(ClockReads, TwoPlReadsFivePerCommit) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  EngineOptions o = SmallRun(4);
  TwoPlEngine eng(o, DeadlockPolicyKind::kWaitDie);
  storage::Database db;
  wl.Load(&db, 1);
  hal::SimPlatform sim(4);
  const RunResult r = eng.Run(&sim, &db, wl);
  for (int w = 0; w < 4; ++w) {
    const WorkerStats& s = r.per_worker[w];
    ASSERT_GT(s.committed, 0u) << "worker " << w;
    EXPECT_EQ(sim.stats().clock_reads[w],
              kWorkerClockReads + 5 * s.committed + 3 * s.aborted +
                  2 * (s.lock_waits - s.aborted))
        << "worker " << w;
  }
  EXPECT_GT(r.total.aborted, 0u);
  EXPECT_GT(r.total.lock_waits, 0u);
}

// Deadlock-free locking reads as 2PL does, and never aborts: five readings
// per commit and two per FIFO lock wait.
TEST(ClockReads, DeadlockFreeReadsFivePerCommit) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  DeadlockFreeEngine eng(SmallRun(4));
  storage::Database db;
  wl.Load(&db, 1);
  hal::SimPlatform sim(4);
  const RunResult r = eng.Run(&sim, &db, wl);
  for (int w = 0; w < 4; ++w) {
    const WorkerStats& s = r.per_worker[w];
    ASSERT_GT(s.committed, 0u) << "worker " << w;
    EXPECT_EQ(sim.stats().clock_reads[w],
              kWorkerClockReads + 5 * s.committed + 2 * s.lock_waits)
        << "worker " << w;
  }
  EXPECT_EQ(r.total.aborted, 0u);
  EXPECT_GT(r.total.lock_waits, 0u);
}

// Partitioned-store spins on its partition latches inside the lock phase,
// so a commit reads five times whatever the contention.
TEST(ClockReads, PartitionedStoreReadsFivePerCommit) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 2;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  storage::Database db;
  wl.Load(&db, 1);
  hal::SimPlatform sim(4);
  const RunResult r = eng.Run(&sim, &db, wl);
  for (int w = 0; w < 4; ++w) {
    const WorkerStats& s = r.per_worker[w];
    ASSERT_GT(s.committed, 0u) << "worker " << w;
    EXPECT_EQ(sim.stats().clock_reads[w], kWorkerClockReads + 5 * s.committed)
        << "worker " << w;
  }
}

// An ORTHRUS exec thread reads the clock four times per commit: Admit's
// post-plan stamp, the ends of Dispatch's resolve and send, and the end of
// the logic. Its other readings are two per idle-loop pass (the empty poll,
// then the backoff), except the last pass, whose one reading gates the
// exit. With single-partition transactions and a CC thread per exec
// thread, the exec threads always have a grant, an ack or a free slot to
// work on, so they idle only while the last in-flight commits drain.
TEST(ClockReads, OrthrusExecReadsFourPerCommit) {
  constexpr int kCc = 2;
  constexpr int kExec = 2;
  KvConfig c = SmallKv(kCc);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 1;
  KvWorkload wl(c);
  EngineOptions o;
  o.num_cores = kCc + kExec;
  o.duration_seconds = 0.0005;
  OrthrusOptions oo;
  oo.num_cc = kCc;
  OrthrusEngine eng(o, oo);
  storage::Database db;
  wl.Load(&db, 1);
  hal::SimPlatform sim(o.num_cores);
  const RunResult r = eng.Run(&sim, &db, wl);
  for (int e = kCc; e < kCc + kExec; ++e) {
    const std::uint64_t commits = r.per_worker[e].committed;
    const std::uint64_t reads = sim.stats().clock_reads[e];
    ASSERT_GT(commits, 100u) << "exec core " << e;
    const std::uint64_t per_commit = 4 * commits;
    ASSERT_GE(reads, kWorkerClockReads + per_commit + 1) << "exec core " << e;
    const std::uint64_t idle = reads - kWorkerClockReads - per_commit - 1;
    EXPECT_EQ(idle % 2, 0u) << "exec core " << e;
    // The drain of at most max_inflight commits.
    EXPECT_LE(idle / 2, static_cast<std::uint64_t>(2 * oo.max_inflight))
        << "exec core " << e;
  }
}

// ---------------------------------------------------------------- ORTHRUS

TEST_P(EnginesOnPlatform, OrthrusSinglePartitionTxns) {
  KvConfig c = SmallKv(2);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 1;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);  // 2 CC + 4 exec
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6);
}

TEST_P(EnginesOnPlatform, OrthrusMultiPartitionChain) {
  KvConfig c = SmallKv(3);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;  // every txn chains across all three CC threads
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 3;
  OrthrusEngine eng(SmallRun(7), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 7);
}

TEST_P(EnginesOnPlatform, OrthrusHighContention) {
  KvConfig c = SmallKv(2);
  c.hot_records = 16;
  c.placement = KvConfig::Placement::kUniform;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6);
}

// ORTHRUS's exec and CC threads read the clock only through their
// SpanClock, which charges every span since the previous reading, so each
// worker's split fits the run and, on the sim, fills it: the categories of
// every thread sum to its whole run, within 1% (a worker starts at the
// run's start and stops only as the last commits drain).
TEST_P(EnginesOnPlatform, OrthrusTimeFitsElapsed) {
  KvConfig c = SmallKv(2);
  c.hot_records = 16;
  c.placement = KvConfig::Placement::kUniform;
  KvWorkload wl(c);
  EngineOptions o;
  o.num_cores = 6;
  o.duration_seconds = GetParam().simulated ? 0.0005 : 0.02;
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(o, oo);  // 2 CC + 4 exec
  storage::Database db;
  wl.Load(&db, 1);
  auto platform = MakePlatform(GetParam().simulated, o.num_cores);
  const RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl.SumCounters(db), r.total.committed * c.ops_per_txn);
  ExpectTimeFitsElapsed(r, GetParam().simulated ? 0.99 : 0);
}

TEST_P(EnginesOnPlatform, OrthrusNeverAbortsOnStaticAccessSets) {
  KvConfig c = SmallKv(2);
  c.hot_records = 8;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  storage::Database db;
  wl.Load(&db, 1);
  auto platform = MakePlatform(GetParam().simulated, 6);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.aborted, 0u);
  EXPECT_EQ(r.total.ollp_aborts, 0u);
}

// ------------------------------------------------------------------ TPC-C

workload::tpcc::TpccScale SmallTpcc(int warehouses) {
  workload::tpcc::TpccScale s;
  s.warehouses = warehouses;
  s.customers_per_district = 60;
  s.items = 200;
  s.order_ring_capacity = 8192;
  return s;
}

void CheckTpccInvariants(const workload::tpcc::TpccWorkload& wl,
                         const storage::Database& db,
                         const RunResult& result) {
  const auto tally = wl.aux()->tallies.Sum();
  EXPECT_EQ(tally.neworders + tally.payments + tally.order_statuses +
                tally.deliveries + tally.stock_levels,
            result.total.committed);
  EXPECT_EQ(wl.TotalWarehouseYtd(db), tally.payment_cents);
  EXPECT_EQ(wl.TotalOrdersPlaced(db), tally.neworders);
  EXPECT_EQ(wl.TotalStockYtd(db), tally.ordered_qty);
  EXPECT_EQ(wl.TotalOrdersDelivered(db), tally.orders_delivered);
  // Balances: deliveries credit order totals, payments debit amounts.
  EXPECT_EQ(wl.TotalCustomerBalance(db),
            static_cast<std::int64_t>(tally.delivered_cents) -
                static_cast<std::int64_t>(tally.payment_cents));
}

TEST_P(EnginesOnPlatform, TpccTwoPlDreadlocks) {
  workload::tpcc::TpccWorkload wl(SmallTpcc(4));
  storage::Database db;
  wl.Load(&db, 1);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kDreadlocks);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
}

TEST_P(EnginesOnPlatform, TpccDeadlockFree) {
  workload::tpcc::TpccWorkload wl(SmallTpcc(4));
  storage::Database db;
  wl.Load(&db, 1);
  DeadlockFreeEngine eng(SmallRun(4));
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.deadlocks, 0u);
  CheckTpccInvariants(wl, db, r);
}

TEST_P(EnginesOnPlatform, TpccOrthrus) {
  workload::tpcc::TpccWorkload wl(SmallTpcc(4));
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = 2;  // 2 CC threads own the 4 warehouses
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  auto platform = MakePlatform(GetParam().simulated, 6);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
}

TEST_P(EnginesOnPlatform, TpccWaitDieSingleWarehouseExtremeContention) {
  workload::tpcc::TpccWorkload wl(SmallTpcc(1));
  storage::Database db;
  wl.Load(&db, 1);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
}

TEST_P(EnginesOnPlatform, TpccFullMixDeadlockFree) {
  workload::tpcc::TpccScale s = SmallTpcc(4);
  s.mix = workload::tpcc::FullTpccMix();
  workload::tpcc::TpccWorkload wl(s);
  storage::Database db;
  wl.Load(&db, 1);
  DeadlockFreeEngine eng(SmallRun(4));
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
  // Delivery's cursor-estimate can go stale under concurrency; any such
  // abort must have been replanned, never silently dropped into the
  // tallies (the invariants above already prove that).
}

TEST_P(EnginesOnPlatform, TpccFullMixOrthrus) {
  workload::tpcc::TpccScale s = SmallTpcc(4);
  s.mix = workload::tpcc::FullTpccMix();
  workload::tpcc::TpccWorkload wl(s);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = 2;
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  auto platform = MakePlatform(GetParam().simulated, 6);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
}

TEST_P(EnginesOnPlatform, TpccFullMixWaitDieSingleWarehouse) {
  workload::tpcc::TpccScale s = SmallTpcc(1);
  s.mix = workload::tpcc::FullTpccMix();
  workload::tpcc::TpccWorkload wl(s);
  storage::Database db;
  wl.Load(&db, 1);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  auto platform = MakePlatform(GetParam().simulated, 4);
  RunResult r = eng.Run(platform.get(), &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  CheckTpccInvariants(wl, db, r);
}

// ------------------------------------------------------- sim determinism

TEST(EngineDeterminism, SimRunsAreReproducible) {
  auto run = [] {
    KvConfig c = SmallKv(2);
    c.hot_records = 16;
    KvWorkload wl(c);
    storage::Database db;
    wl.Load(&db, 1);
    OrthrusOptions oo;
    oo.num_cc = 2;
    OrthrusEngine eng(SmallRun(6), oo);
    hal::SimPlatform sim(6);
    RunResult r = eng.Run(&sim, &db, wl);
    return std::make_pair(r.total.committed, sim.GlobalClock());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace orthrus
