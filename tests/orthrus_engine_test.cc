// Focused tests for ORTHRUS-engine behaviours beyond the generic engine
// integration suite: message economics of the forwarding optimization, the
// shared-CC-table mode (Section 3.4), in-flight window effects, CC/exec
// stats attribution, Zipfian-skew handling, planned row resolution, and
// the option CHECKs.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

#include "analysis/race_detector.h"
#include "engine/orthrus/cc_lock_table.h"
#include "engine/orthrus/orthrus_engine.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_schema.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus {
namespace {

using engine::EngineOptions;
using engine::OrthrusEngine;
using engine::OrthrusOptions;
using workload::KvConfig;
using workload::KvWorkload;

EngineOptions SmallRun(int cores) {
  EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = 0.05;
  o.max_txns_per_worker = 120;
  return o;
}

RunResult RunOrthrus(const KvConfig& kv, OrthrusOptions oo, int cores,
                     KvWorkload** wl_out = nullptr,
                     storage::Database* db_out = nullptr, bool native = false) {
  static thread_local std::unique_ptr<KvWorkload> wl_holder;
  wl_holder = std::make_unique<KvWorkload>(kv);
  storage::Database local_db;
  storage::Database* db = db_out != nullptr ? db_out : &local_db;
  wl_holder->Load(db, 1);
  OrthrusEngine eng(SmallRun(cores), oo);
  RunResult r;
  if (native) {
    hal::NativePlatform p(cores);
    r = eng.Run(&p, db, *wl_holder);
  } else {
    hal::SimPlatform p(cores);
    r = eng.Run(&p, db, *wl_holder);
  }
  if (wl_out != nullptr) *wl_out = wl_holder.get();
  return r;
}

KvConfig MultiPartKv(int parts, int parts_per_txn) {
  KvConfig kv;
  kv.num_records = 4000;
  kv.num_partitions = parts;
  kv.placement = KvConfig::Placement::kFixedCount;
  kv.partitions_per_txn = parts_per_txn;
  return kv;
}

TEST(OrthrusMessages, ForwardingSavesMessages) {
  // With Ncc=3 partitions per txn: forwarding needs Ncc+1 = 4 lock-path
  // messages; exec-mediated hops need 2*Ncc = 6 (plus releases+acks and the
  // final grant in both modes). Compare measured messages per commit.
  OrthrusOptions fwd;
  fwd.num_cc = 3;
  OrthrusOptions nofwd = fwd;
  nofwd.forwarding = false;

  KvWorkload* wl = nullptr;
  storage::Database db1, db2;
  RunResult a = RunOrthrus(MultiPartKv(3, 3), fwd, 7, &wl, &db1);
  RunResult b = RunOrthrus(MultiPartKv(3, 3), nofwd, 7, &wl, &db2);
  ASSERT_GT(a.total.committed, 0u);
  ASSERT_GT(b.total.committed, 0u);
  const double per_a =
      static_cast<double>(a.total.messages_sent) / a.total.committed;
  const double per_b =
      static_cast<double>(b.total.messages_sent) / b.total.committed;
  // Both modes share: grant(1) + releases(3) + acks(3) = 7. Lock path: fwd
  // = acquire(1)+forwards(2) = 3; no-fwd = acquires(3)+stage-dones(2) = 5.
  EXPECT_NEAR(per_a, 10.0, 0.9);
  EXPECT_NEAR(per_b, 12.0, 0.9);
  EXPECT_LT(per_a, per_b);
}

TEST(OrthrusMessages, SinglePartitionCostsFourMessagesPerTxn) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  RunResult r = RunOrthrus(MultiPartKv(2, 1), oo, 6);
  ASSERT_GT(r.total.committed, 0u);
  // acquire + grant + release + ack = 4.
  EXPECT_NEAR(static_cast<double>(r.total.messages_sent) / r.total.committed,
              4.0, 0.5);
}

TEST(OrthrusSharedCc, CommitsAndConserves) {
  OrthrusOptions oo;
  oo.num_cc = 3;
  oo.shared_cc_table = true;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(MultiPartKv(3, 2), oo, 7, &wl, &db);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.aborted, 0u);  // ordered acquisition: no deadlocks
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
}

TEST(OrthrusSharedCc, HighContentionConserves) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.shared_cc_table = true;
  KvConfig kv;
  kv.num_records = 4000;
  kv.hot_records = 8;  // extreme conflicts exercise parked continuations
  kv.num_partitions = 2;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(kv, oo, 6, &wl, &db);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
  // Parked requests count as lock waits, as in partitioned mode.
  EXPECT_GT(r.total.lock_waits, 0u);
}

TEST(OrthrusSharedCc, WorksOnNativeThreads) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.shared_cc_table = true;
  KvConfig kv;
  kv.num_records = 4000;
  kv.hot_records = 32;
  kv.num_partitions = 2;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(kv, oo, 5, &wl, &db, /*native=*/true);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
}

TEST(OrthrusSharedCc, MessagesIndependentOfPartitionSpread) {
  // Shared table: one home CC regardless of how many partitions keys span.
  OrthrusOptions oo;
  oo.num_cc = 4;
  oo.shared_cc_table = true;
  RunResult r = RunOrthrus(MultiPartKv(4, 4), oo, 8);
  ASSERT_GT(r.total.committed, 0u);
  // acquire + grant + release + ack = 4, despite 4-partition key spread.
  EXPECT_NEAR(static_cast<double>(r.total.messages_sent) / r.total.committed,
              4.0, 0.5);
}

TEST(OrthrusStats, CcWorkersAccrueLockingTime) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(6), oo);
  EXPECT_EQ(eng.num_cc(), 2);
  EXPECT_EQ(eng.num_exec(), 4);
  EXPECT_TRUE(eng.IsCcWorker(0));
  EXPECT_TRUE(eng.IsCcWorker(1));
  EXPECT_FALSE(eng.IsCcWorker(2));

  KvWorkload wl(MultiPartKv(2, 1));
  storage::Database db;
  wl.Load(&db, 1);
  hal::SimPlatform sim(6);
  RunResult r = eng.Run(&sim, &db, wl);
  ASSERT_GT(r.total.committed, 0u);
  // CC workers do locking work; exec workers do execution work.
  std::uint64_t cc_lock = 0, exec_exec = 0, cc_exec = 0;
  for (int i = 0; i < 6; ++i) {
    if (eng.IsCcWorker(i)) {
      cc_lock += r.per_worker[i].Get(TimeCategory::kLocking);
      cc_exec += r.per_worker[i].Get(TimeCategory::kExecution);
    } else {
      exec_exec += r.per_worker[i].Get(TimeCategory::kExecution);
    }
  }
  EXPECT_GT(cc_lock, 0u);
  EXPECT_GT(exec_exec, 0u);
  EXPECT_EQ(cc_exec, 0u);  // CC threads never run transaction logic
}

TEST(OrthrusStats, CcDrainCountersMeasureInboxDepth) {
  // cc_batches counts the CC loop's non-empty drains and cc_batch_msgs
  // the messages they delivered. Single-partition transactions send each
  // CC exactly one acquire and one release.
  OrthrusOptions oo;
  oo.num_cc = 2;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(MultiPartKv(2, 1), oo, 6, &wl, &db);
  ASSERT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.cc_batch_msgs, 2 * r.total.committed);
  EXPECT_GT(r.total.cc_batches, 0u);
  EXPECT_LE(r.total.cc_batches, r.total.cc_batch_msgs);
}

TEST(OrthrusInflight, WindowOneStillCorrect) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.max_inflight = 1;  // fully synchronous execution threads
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(MultiPartKv(2, 2), oo, 6, &wl, &db);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
}

TEST(OrthrusInflight, WiderWindowRaisesThroughputWhenUncontended) {
  KvConfig kv;
  kv.num_records = 50000;
  kv.num_partitions = 2;
  OrthrusOptions narrow;
  narrow.num_cc = 2;
  narrow.max_inflight = 1;
  OrthrusOptions wide = narrow;
  wide.max_inflight = 16;

  auto run = [&](OrthrusOptions oo) {
    KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    EngineOptions o = SmallRun(6);
    o.max_txns_per_worker = 0;       // time-bound for a fair rate comparison
    o.duration_seconds = 0.002;
    OrthrusEngine eng(o, oo);
    hal::SimPlatform sim(6);
    return eng.Run(&sim, &db, wl).Throughput();
  };
  EXPECT_GT(run(wide), run(narrow) * 1.2);
}

TEST(OrthrusStatic, WorksOnNativeThreads) {
  // The default static path — per-pair SPSC meshes, messages published
  // as produced, bounded drains — under true concurrency, at the shape the
  // native OLTP benchmark runs: one CC thread, two exec threads with eight
  // transactions in flight each, and a 64-key hot set.
  OrthrusOptions oo;
  oo.num_cc = 1;
  oo.max_inflight = 8;
  KvConfig kv;
  kv.num_records = 4000;
  kv.hot_records = 64;
  kv.num_partitions = 1;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(kv, oo, 3, &wl, &db, /*native=*/true);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
}

TEST(OrthrusZipfian, SkewedWorkloadConserves) {
  KvConfig kv;
  kv.num_records = 8000;
  kv.zipf_theta = 0.9;
  kv.num_partitions = 2;
  OrthrusOptions oo;
  oo.num_cc = 2;
  KvWorkload* wl = nullptr;
  storage::Database db;
  RunResult r = RunOrthrus(kv, oo, 6, &wl, &db);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl->SumCounters(db), r.total.committed * 10);
}

TEST(OrthrusZipfian, SkewConcentratesConflictsOnHotPartition) {
  // Zipfian skew concentrates *conflicts* (not request counts: every
  // transaction still spreads ~10 keys over the partitions) on the
  // partition owning the hottest keys — key 0 lives on partition 0 under
  // modulo partitioning, so CC thread 0 must observe far more lock waits.
  KvConfig kv;
  kv.num_records = 8000;
  kv.zipf_theta = 0.9;
  kv.num_partitions = 4;
  OrthrusOptions oo;
  oo.num_cc = 4;
  KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  OrthrusEngine eng(SmallRun(10), oo);
  hal::SimPlatform sim(10);
  RunResult r = eng.Run(&sim, &db, wl);
  ASSERT_GT(r.total.committed, 0u);
  const std::uint64_t waits0 = r.per_worker[0].lock_waits;
  std::uint64_t waits_rest = 0;
  for (int c = 1; c < 4; ++c) waits_rest += r.per_worker[c].lock_waits;
  // The hot partition alone outweighs the other three combined.
  EXPECT_GT(waits0, waits_rest);
}

}  // namespace
}  // namespace orthrus

// ------------------------------------------------------------- autotune

#include "engine/autotune.h"

namespace orthrus {
namespace {

TEST(Autotune, PicksAReasonableSplit) {
  workload::KvConfig kv;
  kv.num_records = 20000;
  kv.num_partitions = 1;  // partition-agnostic (uniform placement)
  workload::KvWorkload wl(kv);
  engine::AutotuneOptions opts;
  opts.candidates = {1, 2, 4, 8};
  opts.probe_seconds = 0.001;
  engine::AutotuneResult r = engine::AutotuneThreadSplit(16, &wl, opts);
  EXPECT_EQ(r.probes.size(), 4u);
  EXPECT_GT(r.best_throughput, 0.0);
  EXPECT_GE(r.best_num_cc, 1);
  EXPECT_LE(r.best_num_cc, 8);
  // The winner's throughput must match its own probe entry.
  bool found = false;
  for (const auto& p : r.probes) {
    if (p.num_cc == r.best_num_cc) {
      EXPECT_DOUBLE_EQ(p.throughput, r.best_throughput);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Autotune, DefaultCandidatesArePowersOfTwo) {
  workload::KvConfig kv;
  kv.num_records = 10000;
  kv.num_partitions = 1;
  workload::KvWorkload wl(kv);
  engine::AutotuneOptions opts;
  opts.probe_seconds = 0.0005;
  engine::AutotuneResult r = engine::AutotuneThreadSplit(8, &wl, opts);
  // Defaults: 1, 2, 4 (candidates must leave at least one exec core).
  EXPECT_EQ(r.probes.size(), 3u);
}

// --------------------------------------------------------- option checks

// One death test per option CHECK: each aborts with its own message, so a
// misconfiguration names the option it trips.
void BuildEngine(const OrthrusOptions& oo, int cores) {
  OrthrusEngine eng(SmallRun(cores), oo);
}

void RunOnSim(OrthrusEngine* eng, storage::Database* db,
              const workload::Workload& wl, int cores) {
  hal::SimPlatform sim(cores);
  eng->Run(&sim, db, wl);
}

TEST(OrthrusOptionsDeathTest, NeedsACcThread) {
  OrthrusOptions oo;
  oo.num_cc = 0;
  EXPECT_DEATH(BuildEngine(oo, 4), "at least one CC thread");
}

TEST(OrthrusOptionsDeathTest, NeedsAnExecThread) {
  OrthrusOptions oo;
  oo.num_cc = 4;
  EXPECT_DEATH(BuildEngine(oo, 4), "at least one exec thread");
}

TEST(OrthrusOptionsDeathTest, NeedsAnInflightSlot) {
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.max_inflight = 0;
  EXPECT_DEATH(BuildEngine(oo, 4), "max_inflight must be at least 1");
}

TEST(OrthrusOptionsDeathTest, PartitionerMustMatchTheCcCount) {
  KvConfig kv;
  kv.num_records = 1000;
  kv.num_partitions = 3;
  KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(SmallRun(4), oo);
  EXPECT_DEATH(RunOnSim(&eng, &db, wl, 4), "one partition per CC thread");
}

// --------------------------------------------------------- CC lock table

struct TestNode {};
using TestTable = engine::CcLockTable<TestNode>;

// Keys (in table `t`) whose home slot is `home`, found by scanning.
std::vector<std::uint64_t> KeysHomedAt(const TestTable& table,
                                       std::uint32_t t, std::size_t home,
                                       int n, std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; static_cast<int>(keys.size()) < n; ++k) {
    if (table.Home(t, k) == home) keys.push_back(k);
  }
  return keys;
}

TEST(CcLockTable, ProbeChainsWrapPastTheArrayEnd) {
  TestTable table(8);  // 16 slots
  const std::size_t last = table.slots() - 1;
  const std::vector<std::uint64_t> keys = KeysHomedAt(table, 1, last, 3);
  TestNode nodes[3];
  std::vector<TestTable::Lock*> at;
  for (int i = 0; i < 3; ++i) {
    at.push_back(table.FindOrInsert(1, keys[i]));
    at.back()->tail = &nodes[i];
  }
  // The first key sits in the last slot; the next two wrap to the front.
  EXPECT_LT(at[1], at[0]);
  EXPECT_LT(at[2], at[0]);
  EXPECT_LT(at[1], at[2]);
  // Erasing the head of the chain shifts both wrapped entries back.
  table.Erase(table.Find(1, keys[0]));
  EXPECT_EQ(table.Find(1, keys[0]), nullptr);
  ASSERT_NE(table.Find(1, keys[1]), nullptr);
  EXPECT_EQ(table.Find(1, keys[1]), at[0]);
  EXPECT_EQ(table.Find(1, keys[1])->tail, &nodes[1]);
  EXPECT_EQ(table.Find(1, keys[2])->tail, &nodes[2]);
  table.Erase(table.Find(1, keys[2]));
  table.Erase(table.Find(1, keys[1]));
  EXPECT_EQ(table.used(), 0u);
  EXPECT_EQ(table.high_water(), 3u);
}

TEST(CcLockTable, RandomInsertEraseMatchesStdMap) {
  // 200k random inserts, erases and re-inserts against a std::map
  // reference. The key universe mixes keys sharing a home slot near the
  // array end (chains that wrap), keys sharing a home slot mid-array, and
  // random keys over three tables. Each entry's `tail` carries a payload
  // that must travel with the entry through backward-shift moves.
  constexpr std::size_t kMaxLive = 256;
  TestTable table(kMaxLive);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> universe;
  for (std::uint64_t k : KeysHomedAt(table, 0, table.slots() - 2, 40)) {
    universe.emplace_back(0, k);
  }
  for (std::uint64_t k : KeysHomedAt(table, 2, table.slots() / 2, 40)) {
    universe.emplace_back(2, k);
  }
  std::mt19937_64 rng(12345);
  for (int i = 0; i < 600; ++i) {
    universe.emplace_back(static_cast<std::uint32_t>(rng() % 3), rng());
  }
  std::vector<TestNode> payloads(universe.size());
  std::map<std::pair<std::uint32_t, std::uint64_t>, TestNode*> ref;
  std::vector<std::size_t> live;  // universe indexes present in `ref`
  std::vector<bool> is_live(universe.size(), false);
  const auto verify_all = [&] {
    ASSERT_EQ(table.used(), ref.size());
    for (std::size_t u = 0; u < universe.size(); ++u) {
      TestTable::Lock* l = table.Find(universe[u].first, universe[u].second);
      if (is_live[u]) {
        ASSERT_NE(l, nullptr);
        ASSERT_EQ(l->table, universe[u].first);
        ASSERT_EQ(l->key, universe[u].second);
        ASSERT_EQ(l->tail, ref.at(universe[u]));
      } else {
        ASSERT_EQ(l, nullptr);
      }
    }
  };
  for (int op = 0; op < 200000; ++op) {
    const bool insert = live.empty() ||
                        (live.size() < kMaxLive && rng() % 100 < 52);
    if (insert) {
      const std::size_t u = rng() % universe.size();
      TestTable::Lock* l =
          table.FindOrInsert(universe[u].first, universe[u].second);
      if (is_live[u]) {
        ASSERT_EQ(l->tail, ref.at(universe[u]));
      } else {
        ASSERT_EQ(l->tail, nullptr);
        l->tail = &payloads[u];
        ref[universe[u]] = &payloads[u];
        is_live[u] = true;
        live.push_back(u);
      }
    } else {
      const std::size_t i = rng() % live.size();
      const std::size_t u = live[i];
      live[i] = live.back();
      live.pop_back();
      TestTable::Lock* l = table.Find(universe[u].first, universe[u].second);
      ASSERT_NE(l, nullptr);
      ASSERT_EQ(l->tail, &payloads[u]);
      l->tail = nullptr;
      table.Erase(l);
      ref.erase(universe[u]);
      is_live[u] = false;
    }
    if (op % 4096 == 0) verify_all();
  }
  verify_all();
  EXPECT_GT(table.high_water(), kMaxLive / 2);
  for (std::size_t u : live) {
    TestTable::Lock* l = table.Find(universe[u].first, universe[u].second);
    ASSERT_NE(l, nullptr);
    l->tail = nullptr;
    table.Erase(l);
    is_live[u] = false;
  }
  ref.clear();
  EXPECT_EQ(table.used(), 0u);
  verify_all();
}

TEST(CcLockTable, CapacityCheckFiresPastTheBound) {
  TestTable table(8);
  for (std::uint64_t k = 0; k < 8; ++k) table.FindOrInsert(0, k);
  EXPECT_EQ(table.FindOrInsert(0, 3), table.Find(0, 3));  // no new entry
  EXPECT_EQ(table.used(), 8u);
  EXPECT_DEATH(table.FindOrInsert(0, 8), "live-lock bound");
}

// Boundedness: uniform KV touching many times more distinct keys than the
// live-lock bound. Every CC lock table stays within
// n_exec * max_inflight * kMaxAccesses; the engine's teardown CHECKs that
// each ends empty. The shared-table arm (Section 3.4) runs one CC thread
// and two exec threads over 2M rows for long enough to touch more than
// 2^18 distinct keys, each of which must leave its stripe once its queue
// empties; its reported peak is the sum of the stripes' peaks.
TEST(OrthrusStatic, LiveLocksStayWithinBound) {
  constexpr std::uint64_t kMaxAccesses = 40;
  struct Arm {
    const char* name;
    bool shared_cc;
    int num_cc;
    int cores;
    std::uint64_t records;
    double seconds;
  };
  for (const Arm& arm : {Arm{"partitioned", false, 2, 6, 200000, 0.004},
                         Arm{"shared-cc", true, 1, 3, 2000000, 0.06}}) {
    SCOPED_TRACE(arm.name);
    OrthrusOptions oo;
    oo.num_cc = arm.num_cc;
    oo.shared_cc_table = arm.shared_cc;
    KvConfig kv;
    kv.num_records = arm.records;
    kv.num_partitions = arm.num_cc;
    KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    EngineOptions eo = SmallRun(arm.cores);
    eo.max_txns_per_worker = 0;
    eo.duration_seconds = arm.seconds;
    OrthrusEngine eng(eo, oo);
    hal::SimPlatform sim(arm.cores);
    RunResult r = eng.Run(&sim, &db, wl);
    const std::uint64_t bound = static_cast<std::uint64_t>(eng.num_exec()) *
                                static_cast<std::uint64_t>(oo.max_inflight) *
                                kMaxAccesses;
    EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);
    // Ten keys per transaction out of 200k or 2M: nearly all distinct.
    EXPECT_GE(r.total.committed * 10, 10 * bound);
    EXPECT_GT(r.total.cc_live_locks_max, 0u);
    EXPECT_LE(r.total.cc_live_locks_max, bound);
    // Merged by max, not summed.
    std::uint64_t per_worker_max = 0;
    for (const WorkerStats& w : r.per_worker) {
      per_worker_max = std::max(per_worker_max, w.cc_live_locks_max);
    }
    EXPECT_EQ(r.total.cc_live_locks_max, per_worker_max);
  }
}

// ------------------------------------------------- planned row resolution

// Counters shared by every RowCheckLogic of one run. Plain fields: the
// simulator runs all cores on one host thread.
struct RowCheckTally {
  std::uint64_t accesses = 0;    // accesses checked inside Run
  std::uint64_t mismatches = 0;  // a.row != the row a fresh probe finds
  std::uint64_t staled = 0;      // by-name Payment estimates turned stale
};

// Wraps a logic so that Run first checks every access's row against a
// fresh index probe, before the wrapped logic touches any row. ORTHRUS
// resolves rows in Dispatch, ahead of the first lock request; this pins
// that the rows the logic runs on, including those of a re-planned access
// set, are the rows their keys name. A mismatch is counted and repaired so
// the run can finish and report it. With `customers_per_district` > 0 the
// first plan of every by-name Payment (3 exclusive accesses ending in the
// customer) is made stale: its estimate moves to the next customer of the
// same district, so Run refuses it and the engine re-plans a different
// access set.
class RowCheckLogic final : public txn::TxnLogic {
 public:
  RowCheckLogic(txn::TxnLogic* base, RowCheckTally* tally,
                int customers_per_district)
      : base_(base), tally_(tally), cpd_(customers_per_district) {}

  void BuildAccessSet(txn::Txn* t, storage::Database* db) override {
    base_->BuildAccessSet(t, db);
    if (cpd_ == 0 || t->restarts != 0 || !IsByNamePayment(*t)) return;
    namespace tpcc = workload::tpcc;
    auto* p = t->Params<tpcc::PaymentParams>();
    const int c = static_cast<int>(p->resolved_c_key & 0xFFFFF);
    p->resolved_c_key = tpcc::CustomerKey(p->c_w, p->c_d, (c + 1) % cpd_);
    t->accesses[2].key = p->resolved_c_key;
    tally_->staled++;
  }
  bool NeedsReconnaissance() const override {
    return base_->NeedsReconnaissance();
  }
  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    for (txn::Access& a : t->accesses) {
      const storage::Table* tbl = ctx.db->GetTable(a.table);
      void* const want =
          tbl->LookupRaw(a.key, engine::IndexPartition(ctx.db, tbl, a.key));
      tally_->accesses++;
      if (a.row != want) {
        tally_->mismatches++;
        a.row = want;
      }
    }
    return base_->Run(t, ctx);
  }
  hal::Cycles OpCost(const txn::Txn* t, std::size_t i,
                     storage::Database* db) const override {
    return base_->OpCost(t, i, db);
  }

 private:
  static bool IsByNamePayment(const txn::Txn& t) {
    namespace tpcc = workload::tpcc;
    if (t.accesses.size() != 3 || t.accesses[2].table != tpcc::kCustomer ||
        t.accesses[2].mode != txn::LockMode::kExclusive) {
      return false;
    }
    return t.Params<tpcc::PaymentParams>()->by_last_name != 0;
  }

  txn::TxnLogic* base_;
  RowCheckTally* tally_;
  int cpd_;
};

// Workload shim that hands every transaction a RowCheckLogic around the
// logic the inner source chose.
class RowCheckWorkload final : public workload::Workload {
 public:
  explicit RowCheckWorkload(workload::Workload* inner,
                            int stale_customers_per_district = 0)
      : inner_(inner), cpd_(stale_customers_per_district) {}

  void Load(storage::Database* db, int num_table_partitions) override {
    inner_->Load(db, num_table_partitions);
  }
  std::unique_ptr<workload::TxnSource> MakeSource(int worker_id) const
      override {
    return std::make_unique<Source>(
        const_cast<RowCheckWorkload*>(this), inner_->MakeSource(worker_id));
  }
  std::string name() const override { return inner_->name(); }

  const RowCheckTally& tally() const { return tally_; }

 private:
  class Source final : public workload::TxnSource {
   public:
    Source(RowCheckWorkload* wl, std::unique_ptr<workload::TxnSource> inner)
        : wl_(wl), inner_(std::move(inner)) {}
    void Next(txn::Txn* t) override {
      inner_->Next(t);
      t->logic = wl_->Wrap(t->logic);
    }

   private:
    RowCheckWorkload* wl_;
    std::unique_ptr<workload::TxnSource> inner_;
  };

  txn::TxnLogic* Wrap(txn::TxnLogic* base) {
    std::unique_ptr<RowCheckLogic>& w = wrappers_[base];
    if (w == nullptr) w = std::make_unique<RowCheckLogic>(base, &tally_, cpd_);
    return w.get();
  }

  workload::Workload* inner_;
  int cpd_;
  RowCheckTally tally_;
  std::map<txn::TxnLogic*, std::unique_ptr<RowCheckLogic>> wrappers_;
};

hal::SimConfig RaceArmed() {
  hal::SimConfig cfg;
  cfg.race_detect = true;
  cfg.race_report_fatal = true;
  return cfg;
}

TEST(OrthrusPlannedAccess, LogicRunsOnTheRowsItsKeysName) {
  struct Arm {
    const char* name;
    OrthrusOptions oo;
  };
  std::vector<Arm> arms;
  OrthrusOptions oo;
  oo.num_cc = 2;
  arms.push_back({"default", oo});
  oo.forwarding = false;
  arms.push_back({"no-forwarding", oo});
  oo.forwarding = true;
  oo.shared_cc_table = true;
  arms.push_back({"shared-cc", oo});
  for (const Arm& arm : arms) {
    KvWorkload kv(MultiPartKv(2, 2));
    RowCheckWorkload wl(&kv);
    storage::Database db;
    wl.Load(&db, 1);
    OrthrusEngine eng(SmallRun(5), arm.oo);
    hal::SimPlatform sim(5, RaceArmed());
    const RunResult r = eng.Run(&sim, &db, wl);
    ASSERT_GT(r.total.committed, 0u) << arm.name;
    EXPECT_EQ(kv.SumCounters(db), r.total.committed * 10) << arm.name;
    EXPECT_GE(wl.tally().accesses, r.total.committed * 10) << arm.name;
    EXPECT_EQ(wl.tally().mismatches, 0u) << arm.name;
    EXPECT_EQ(sim.race_detector()->races_observed(), 0u) << arm.name;
  }
}

TEST(OrthrusPlannedAccess, OllpReplanResolvesTheNewAccessSet) {
  // Every by-name Payment's first estimate is stale, so its re-plan names
  // a different customer row than the one its first dispatch resolved.
  workload::tpcc::TpccScale scale;
  scale.warehouses = 4;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.order_ring_capacity = 1024;
  workload::tpcc::TpccWorkload tpcc(scale);
  RowCheckWorkload wl(&tpcc, scale.customers_per_district);
  storage::Database db;
  wl.Load(&db, 1);
  OrthrusOptions oo;
  oo.num_cc = 2;
  db.partitioner().n = oo.num_cc;
  OrthrusEngine eng(SmallRun(5), oo);
  hal::SimPlatform sim(5, RaceArmed());
  const RunResult r = eng.Run(&sim, &db, wl);
  ASSERT_GT(r.total.committed, 0u);
  EXPECT_GT(wl.tally().staled, 0u);
  EXPECT_GE(r.total.ollp_aborts, wl.tally().staled);
  EXPECT_EQ(wl.tally().mismatches, 0u);
  EXPECT_EQ(sim.race_detector()->races_observed(), 0u);
}

}  // namespace
}  // namespace orthrus
