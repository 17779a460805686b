// Integration tests: every engine runs real workloads on both platforms and
// must preserve serializability invariants (no lost updates, consistent
// TPC-C aggregates), terminate cleanly, and report sane statistics.
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
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
    hal::SimConfig config;
    // CI race arm: ORTHRUS_RACE_DETECT=1 reruns the whole suite with
    // happens-before checking on and abort-on-first-race. Detection is
    // zero-perturbation, so every assertion below must still hold.
    if (std::getenv("ORTHRUS_RACE_DETECT") != nullptr) {
      config.race_detect = true;
      config.race_report_fatal = true;
    }
    return std::make_unique<hal::SimPlatform>(cores, config);
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
                   int cores, int table_partitions,
                   std::uint64_t* committed_out = nullptr) {
  storage::Database db;
  wl->Load(&db, table_partitions);
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
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 1);
}

TEST_P(EnginesOnPlatform, TwoPlWaitDieHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;  // heavy conflicts: aborts and restarts exercised
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 1);
}

TEST_P(EnginesOnPlatform, TwoPlWaitForGraphHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitForGraph);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 1);
}

TEST_P(EnginesOnPlatform, TwoPlDreadlocksHighContention) {
  KvConfig c = SmallKv(1);
  c.hot_records = 16;
  KvWorkload wl(c);
  TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kDreadlocks);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 1);
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
}

TEST_P(EnginesOnPlatform, DeadlockFreeSplitIndex) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 2;
  KvWorkload wl(c);
  DeadlockFreeEngine eng(SmallRun(4), /*split_index=*/true);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, /*table_partitions=*/4);
}

// ---------------------------------------------------- partitioned-store

TEST_P(EnginesOnPlatform, PartitionedStoreSinglePartition) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 1;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 4);
}

TEST_P(EnginesOnPlatform, PartitionedStoreMultiPartition) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 4);
}

TEST_P(EnginesOnPlatform, PartitionedStorePctMultiMix) {
  KvConfig c = SmallKv(4);
  c.placement = KvConfig::Placement::kPctMulti;
  c.pct_multi = 30;
  c.local_affinity = true;
  KvWorkload wl(c);
  PartitionedEngine eng(SmallRun(4));
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 4, 4);
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
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6, 1);
}

TEST_P(EnginesOnPlatform, OrthrusMultiPartitionChain) {
  KvConfig c = SmallKv(3);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;  // every txn chains across all three CC threads
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 3;
  OrthrusEngine eng(SmallRun(7), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 7, 1);
}

TEST_P(EnginesOnPlatform, OrthrusHighContention) {
  KvConfig c = SmallKv(2);
  c.hot_records = 16;
  c.placement = KvConfig::Placement::kUniform;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6, 1);
}

TEST_P(EnginesOnPlatform, OrthrusNoForwardingEquivalentResults) {
  KvConfig c = SmallKv(2);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 2;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.forwarding = false;  // exec-mediated hops (2*Ncc messages)
  OrthrusEngine eng(SmallRun(6), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6, 1);
}

TEST_P(EnginesOnPlatform, OrthrusSplitIndex) {
  KvConfig c = SmallKv(2);
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 1;
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.split_index = true;
  OrthrusEngine eng(SmallRun(6), oo);
  RunKvAndCheck(&eng, &wl, GetParam().simulated, 6, /*table_partitions=*/2);
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
