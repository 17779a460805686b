// Race-detector regression tests.
//
// Three layers:
//  1. Unit tests drive analysis::RaceDetector directly and pin the
//     FastTrack semantics (release/acquire edges order, missing edges
//     race, reads clear on writes).
//  2. Seeded races run deliberately broken publication protocols on the
//     simulator — a ring variant whose producer publishes its index with a
//     relaxed store, and a plain-field handoff with no synchronization at
//     all — and assert the detector flags them with the exact core pair,
//     site labels, and reproducible virtual timestamps. The negative arm
//     runs the corrected protocol and must stay silent.
//  3. Race-clean sweeps run every engine (including multi-partition
//     ORTHRUS chains and a WAL-durable run) at a small sim point with
//     race_detect=on and assert zero reports, plus the zero-perturbation
//     pin: a race_detect=on run is byte-identical (committed count and
//     global virtual clock) to the same run with the detector off.
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "analysis/race_detector.h"
#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/sim_platform.h"
#include "wal/wal.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus {
namespace {

using analysis::RaceDetector;
using analysis::SyncOp;
using engine::DeadlockPolicyKind;
using engine::EngineOptions;
using engine::OrthrusOptions;
using workload::KvConfig;
using workload::KvWorkload;

// ------------------------------------------------------------- unit level

TEST(RaceDetectorUnit, ConflictingAccessesWithNoEdgeAreRaces) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  d.OnPlainAccess(&cell, 8, /*is_write=*/true, "unit.w", /*core=*/0,
                  /*time=*/10);
  d.OnPlainAccess(&cell, 8, /*is_write=*/false, "unit.r", /*core=*/1,
                  /*time=*/20);
  ASSERT_EQ(d.reports().size(), 1u);
  const analysis::RaceReport& r = d.reports()[0];
  EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&cell));
  EXPECT_EQ(r.prior.core, 0);
  EXPECT_TRUE(r.prior.is_write);
  EXPECT_STREQ(r.prior.label, "unit.w");
  EXPECT_EQ(r.prior.time, 10u);
  EXPECT_EQ(r.current.core, 1);
  EXPECT_FALSE(r.current.is_write);
  EXPECT_STREQ(r.current.label, "unit.r");
  EXPECT_EQ(r.current.time, 20u);
  EXPECT_FALSE(r.ToString().empty());
}

TEST(RaceDetectorUnit, ReleaseAcquireEdgeOrdersTheAccesses) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  int sync_var = 0;
  d.OnPlainAccess(&cell, 8, true, "unit.w", 0, 10);
  d.OnSyncAccess(&sync_var, SyncOp::kRelease, 0);
  d.OnSyncAccess(&sync_var, SyncOp::kAcquire, 1);
  d.OnPlainAccess(&cell, 8, false, "unit.r", 1, 20);
  EXPECT_TRUE(d.reports().empty());
  EXPECT_EQ(d.races_observed(), 0u);
}

TEST(RaceDetectorUnit, AcquireBeforeTheReleaseEstablishesNothing) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  int sync_var = 0;
  // The reader acquires *before* the writer releases: no edge.
  d.OnSyncAccess(&sync_var, SyncOp::kAcquire, 1);
  d.OnPlainAccess(&cell, 8, true, "unit.w", 0, 10);
  d.OnSyncAccess(&sync_var, SyncOp::kRelease, 0);
  d.OnPlainAccess(&cell, 8, false, "unit.r", 1, 20);
  ASSERT_EQ(d.reports().size(), 1u);
  EXPECT_EQ(d.reports()[0].prior.core, 0);
  EXPECT_EQ(d.reports()[0].current.core, 1);
}

TEST(RaceDetectorUnit, ReadThenUnorderedWriteIsARace) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  d.OnPlainAccess(&cell, 8, false, "unit.r", 0, 5);
  d.OnPlainAccess(&cell, 8, true, "unit.w", 1, 6);
  ASSERT_EQ(d.reports().size(), 1u);
  EXPECT_FALSE(d.reports()[0].prior.is_write);
  EXPECT_TRUE(d.reports()[0].current.is_write);
}

TEST(RaceDetectorUnit, SameCoreNeverRaces) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  d.OnPlainAccess(&cell, 8, true, "unit.w", 0, 1);
  d.OnPlainAccess(&cell, 8, true, "unit.w", 0, 2);
  d.OnPlainAccess(&cell, 8, false, "unit.r", 0, 3);
  EXPECT_TRUE(d.reports().empty());
}

TEST(RaceDetectorUnit, ForgetRangeDropsShadowState) {
  RaceDetector d(2);
  std::uint64_t cell = 0;
  d.OnPlainAccess(&cell, 8, true, "unit.w", 0, 1);
  d.ForgetRange(&cell, 8);
  d.OnPlainAccess(&cell, 8, true, "unit.w2", 1, 2);
  EXPECT_TRUE(d.reports().empty());
}

// ------------------------------------------------------------ seeded races

// A deliberately broken SPSC handoff: the producer publishes its index with
// a relaxed store (hal::Atomic::RawStore bypasses the modeled access, so no
// release edge exists), exactly the bug QueueMesh's ring-index discipline
// prevents. One payload word, one flag.
struct BrokenRing {
  std::uint64_t payload = 0;
  hal::Atomic<std::uint64_t> flag;
};

TEST(RaceDetectorSim, UnsynchronizedRingPublicationIsFlagged) {
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(2, cfg);
  auto ring = std::make_unique<BrokenRing>();
  sim.Spawn(0, [&] {
    hal::RaceCheck(&ring->payload, sizeof(ring->payload), /*is_write=*/true,
                   "seed.ring.word");
    ring->payload = 42;
    ring->flag.RawStore(1);  // BUG: relaxed publication, no release edge
  });
  sim.Spawn(1, [&] {
    while (ring->flag.RawLoad() == 0) hal::CpuRelax();
    hal::RaceCheck(&ring->payload, sizeof(ring->payload), /*is_write=*/false,
                   "seed.ring.word");
    EXPECT_EQ(ring->payload, 42u);
  });
  sim.Run();
  RaceDetector* det = sim.race_detector();
  ASSERT_NE(det, nullptr);
  ASSERT_EQ(det->reports().size(), 1u);
  const analysis::RaceReport& r = det->reports()[0];
  EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&ring->payload));
  EXPECT_EQ(r.prior.core, 0);
  EXPECT_TRUE(r.prior.is_write);
  EXPECT_EQ(r.current.core, 1);
  EXPECT_FALSE(r.current.is_write);
  EXPECT_STREQ(r.prior.label, "seed.ring.word");
  EXPECT_STREQ(r.current.label, "seed.ring.word");
}

TEST(RaceDetectorSim, ProperReleaseAcquirePublicationIsClean) {
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(2, cfg);
  auto ring = std::make_unique<BrokenRing>();
  sim.Spawn(0, [&] {
    hal::RaceCheck(&ring->payload, sizeof(ring->payload), /*is_write=*/true,
                   "seed.ring.word");
    ring->payload = 42;
    ring->flag.store(1);  // modeled release store
  });
  sim.Spawn(1, [&] {
    while (ring->flag.load() == 0) hal::CpuRelax();  // modeled acquire load
    hal::RaceCheck(&ring->payload, sizeof(ring->payload), /*is_write=*/false,
                   "seed.ring.word");
    EXPECT_EQ(ring->payload, 42u);
  });
  sim.Run();
  ASSERT_NE(sim.race_detector(), nullptr);
  EXPECT_TRUE(sim.race_detector()->reports().empty());
  EXPECT_EQ(sim.race_detector()->races_observed(), 0u);
}

// The un-annotated plain-field handoff: two cores touch the same field with
// no synchronization anywhere. Write-write flavour.
TEST(RaceDetectorSim, PlainFieldHandoffIsFlaggedWithExactCorePair) {
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(3, cfg);
  auto field = std::make_unique<std::uint64_t>(0);
  sim.Spawn(0, [&] {
    hal::RaceCheck(field.get(), 8, /*is_write=*/true, "seed.field");
    *field = 1;
  });
  sim.Spawn(2, [&] {
    hal::RaceCheck(field.get(), 8, /*is_write=*/true, "seed.field");
    *field = 2;
  });
  sim.Run();
  RaceDetector* det = sim.race_detector();
  ASSERT_NE(det, nullptr);
  ASSERT_EQ(det->reports().size(), 1u);
  EXPECT_EQ(det->reports()[0].prior.core, 0);
  EXPECT_EQ(det->reports()[0].current.core, 2);
  EXPECT_STREQ(det->reports()[0].prior.label, "seed.field");
}

// The sim schedule is deterministic, so the first report is always the same
// one — same cores, same labels, same virtual timestamps.
TEST(RaceDetectorSim, FirstReportIsDeterministic) {
  auto run = [] {
    hal::SimConfig cfg;
    cfg.race_detect = true;
    hal::SimPlatform sim(2, cfg);
    auto ring = std::make_unique<BrokenRing>();
    sim.Spawn(0, [&] {
      hal::RaceCheck(&ring->payload, 8, true, "seed.ring.word");
      ring->payload = 7;
      ring->flag.RawStore(1);
    });
    sim.Spawn(1, [&] {
      while (ring->flag.RawLoad() == 0) hal::CpuRelax();
      hal::RaceCheck(&ring->payload, 8, false, "seed.ring.word");
    });
    sim.Run();
    const analysis::RaceReport& r = sim.race_detector()->reports().at(0);
    return std::make_tuple(r.prior.core, r.current.core, r.prior.time,
                           r.current.time, std::string(r.prior.label));
  };
  EXPECT_EQ(run(), run());
}

// -------------------------------------------------- race-clean engine runs

EngineOptions SmallRun(int cores) {
  EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = 0.05;
  o.max_txns_per_worker = 150;
  return o;
}

KvConfig SmallKv(int partitions) {
  KvConfig c;
  c.num_records = 5000;
  c.row_bytes = 64;
  c.ops_per_txn = 10;
  c.hot_records = 16;  // heavy conflicts exercise the grant paths
  c.num_partitions = partitions;
  return c;
}

struct CleanOutcome {
  std::uint64_t committed = 0;
  hal::Cycles clock = 0;
};

// Runs the engine on the simulator and, when race_detect is on, asserts the
// run produced no reports (printing the first one when it did).
CleanOutcome RunKv(engine::Engine* eng, KvWorkload* wl, int cores,
                   bool race_detect) {
  storage::Database db;
  wl->Load(&db, 1);
  hal::SimConfig cfg;
  cfg.race_detect = race_detect;
  hal::SimPlatform sim(cores, cfg);
  RunResult r = eng->Run(&sim, &db, *wl);
  EXPECT_GT(r.total.committed, 0u) << eng->name();
  if (race_detect) {
    RaceDetector* det = sim.race_detector();
    EXPECT_TRUE(det->reports().empty())
        << eng->name() << ": " << det->races_observed()
        << " races, first: " << det->reports().at(0).ToString();
  }
  return CleanOutcome{r.total.committed, sim.GlobalClock()};
}

TEST(RaceClean, TwoPlDreadlocksHighContention) {
  KvWorkload wl(SmallKv(1));
  engine::TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kDreadlocks);
  RunKv(&eng, &wl, 4, /*race_detect=*/true);
}

TEST(RaceClean, TwoPlWaitDieHighContention) {
  KvWorkload wl(SmallKv(1));
  engine::TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  RunKv(&eng, &wl, 4, /*race_detect=*/true);
}

TEST(RaceClean, DeadlockFreeHighContention) {
  KvWorkload wl(SmallKv(1));
  engine::DeadlockFreeEngine eng(SmallRun(4));
  RunKv(&eng, &wl, 4, /*race_detect=*/true);
}

TEST(RaceClean, PartitionedStoreMultiPartition) {
  KvConfig c = SmallKv(4);
  c.hot_records = 0;
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;
  c.local_affinity = true;
  KvWorkload wl(c);
  engine::PartitionedEngine eng(SmallRun(4));
  RunKv(&eng, &wl, 4, /*race_detect=*/true);
}

TEST(RaceClean, OrthrusMultiPartitionChain) {
  KvConfig c = SmallKv(3);
  c.hot_records = 0;
  c.placement = KvConfig::Placement::kFixedCount;
  c.partitions_per_txn = 3;  // every txn chains across all three CC threads
  KvWorkload wl(c);
  OrthrusOptions oo;
  oo.num_cc = 3;
  engine::OrthrusEngine eng(SmallRun(7), oo);
  RunKv(&eng, &wl, 7, /*race_detect=*/true);
}

TEST(RaceClean, OrthrusHighContention) {
  KvWorkload wl(SmallKv(2));
  OrthrusOptions oo;
  oo.num_cc = 2;
  engine::OrthrusEngine eng(SmallRun(6), oo);
  RunKv(&eng, &wl, 6, /*race_detect=*/true);
}

TEST(RaceClean, WalDurableTwoPl) {
  KvWorkload wl(SmallKv(4));
  storage::Database db;
  wl.Load(&db, 1);
  wal::DurabilityOptions dopts;
  wal::GroupCommitLog log(dopts, &db, /*n_producers=*/4);
  EngineOptions o = SmallRun(4);
  o.wal = &log;
  engine::TwoPlEngine eng(o, DeadlockPolicyKind::kWaitDie);
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(4 + log.loggers(), cfg);
  RunResult r = eng.Run(&sim, &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  RaceDetector* det = sim.race_detector();
  EXPECT_TRUE(det->reports().empty())
      << det->races_observed()
      << " races, first: " << det->reports().at(0).ToString();
}

workload::tpcc::TpccScale FullMixTpcc() {
  workload::tpcc::TpccScale s;
  s.warehouses = 4;
  s.customers_per_district = 60;
  s.items = 200;
  s.order_ring_capacity = 8192;
  s.mix = workload::tpcc::FullTpccMix();
  return s;
}

void ExpectNoRaces(hal::SimPlatform* sim) {
  RaceDetector* det = sim->race_detector();
  EXPECT_TRUE(det->reports().empty())
      << det->races_observed()
      << " races, first: " << det->reports().at(0).ToString();
}

TEST(RaceClean, TpccOrthrusFullMix) {
  workload::tpcc::TpccWorkload wl(FullMixTpcc());
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = 2;
  OrthrusOptions oo;
  oo.num_cc = 2;
  engine::OrthrusEngine eng(SmallRun(6), oo);
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(6, cfg);
  RunResult r = eng.Run(&sim, &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  ExpectNoRaces(&sim);
}

// 2PL resolves the whole access set before its first lock, and Delivery /
// StockLevel re-plan it from unlocked OLLP reconnaissance reads when an
// estimate goes stale: row contents must still be touched under locks only.
TEST(RaceClean, TpccTwoPlWaitDieFullMix) {
  workload::tpcc::TpccWorkload wl(FullMixTpcc());
  storage::Database db;
  wl.Load(&db, 1);
  engine::TwoPlEngine eng(SmallRun(4), DeadlockPolicyKind::kWaitDie);
  hal::SimConfig cfg;
  cfg.race_detect = true;
  hal::SimPlatform sim(4, cfg);
  RunResult r = eng.Run(&sim, &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  ExpectNoRaces(&sim);
}

// -------------------------------------------------- zero-perturbation pin

// Turning the detector on must not move the schedule by a single cycle:
// same committed count, same global virtual clock. (Stronger than "no
// regression": on and off are compared within one binary, so any detector
// hook that charged a cycle or yielded would fail here immediately.)
TEST(RaceDetectZeroPerturbation, OrthrusClockIsByteIdentical) {
  auto run = [](bool race_detect) {
    KvWorkload wl(SmallKv(2));
    OrthrusOptions oo;
    oo.num_cc = 2;
    engine::OrthrusEngine eng(SmallRun(6), oo);
    return RunKv(&eng, &wl, 6, race_detect);
  };
  const CleanOutcome off = run(false);
  const CleanOutcome on = run(true);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.clock, on.clock);
}

TEST(RaceDetectZeroPerturbation, WalDurableClockIsByteIdentical) {
  auto run = [](bool race_detect) {
    KvWorkload wl(SmallKv(4));
    storage::Database db;
    wl.Load(&db, 1);
    wal::DurabilityOptions dopts;
    wal::GroupCommitLog log(dopts, &db, 4);
    EngineOptions o = SmallRun(4);
    o.wal = &log;
    engine::TwoPlEngine eng(o, DeadlockPolicyKind::kWaitDie);
    hal::SimConfig cfg;
    cfg.race_detect = race_detect;
    hal::SimPlatform sim(4 + log.loggers(), cfg);
    RunResult r = eng.Run(&sim, &db, wl);
    return CleanOutcome{r.total.committed, sim.GlobalClock()};
  };
  const CleanOutcome off = run(false);
  const CleanOutcome on = run(true);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.clock, on.clock);
}

}  // namespace
}  // namespace orthrus
