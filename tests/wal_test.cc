// Crash-consistent durability: every engine that can run with a
// wal::GroupCommitLog must satisfy three properties on the deterministic
// simulator:
//
//  1. Durability is observationally inert: a capped durable run commits the
//     same transaction multiset (and canonical digest) as the same run with
//     durability off — group commit delays acknowledgement, never changes
//     what commits.
//
//  2. Crash-replay equivalence: kill the durable run at an arbitrary
//     virtual time (modeled as truncating every partition log to its last
//     completed sync), recover into a freshly loaded database, and resume
//     with the recovered per-producer commit credits while skipping the
//     same per-worker source prefix. The resumed database must digest
//     identically to the clean run: nothing durable is lost, nothing is
//     applied twice, and the resumed workers re-execute exactly the
//     non-durable remainder.
//
//  3. Recovery is defensive: torn tails truncate at the first bad frame,
//     replay is idempotent (max-version-wins), and a mid-frame truncation
//     only ever shrinks the durable prefix — it never aborts recovery or
//     invents state.
//
// The crash test compares CanonicalDigest only: the order/history rings
// live outside the lock-managed tables and are not logged (they are
// derivable state), so a recovered database reloads them from the seeded
// load. Delivery stays comparable because the seeded-frontier cap
// (DeliveryLogic::DeliverableEnd) makes delivered order contents
// load-deterministic, and the remaining canonical-column effects are
// commutative sums and counters.
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/rng.h"
#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "sim_env.h"
#include "wal/wal.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus {
namespace {

constexpr int kWorkers = 3;  // transaction-running workers per engine
constexpr std::uint64_t kTxnsPerWorker = 25;
constexpr int kOrthrusCc = 2;

// Resume-side source alignment: a recovered run must not re-draw the
// transactions its previous incarnation already made durable, so each
// worker's source skips its durable prefix. TxnSource::Next only advances
// the stream's RNG (reconnaissance happens at plan time), so skipped draws
// have no side effects.
class SkippingWorkload final : public workload::Workload {
 public:
  SkippingWorkload(workload::Workload* inner,
                   const std::vector<std::uint64_t>* skip)
      : inner_(inner), skip_(skip) {}

  void Load(storage::Database* db, int unused) override {
    inner_->Load(db, unused);
  }
  std::unique_ptr<workload::TxnSource> MakeSource(int worker_id) const
      override {
    std::unique_ptr<workload::TxnSource> src = inner_->MakeSource(worker_id);
    const std::uint64_t n =
        worker_id >= 0 && worker_id < static_cast<int>(skip_->size())
            ? (*skip_)[static_cast<std::size_t>(worker_id)]
            : 0;
    txn::Txn scratch;
    for (std::uint64_t i = 0; i < n; ++i) src->Next(&scratch);
    return src;
  }
  std::string name() const override { return inner_->name(); }

 private:
  workload::Workload* inner_;
  const std::vector<std::uint64_t>* skip_;
};

engine::EngineOptions CappedOptions(int cores) {
  engine::EngineOptions o;
  o.num_cores = cores;
  // Virtual-time budget far beyond what the cap needs: the commit cap, not
  // the clock, ends every run (a durable run must never be cut off with
  // commits still awaiting their group commit).
  o.duration_seconds = 1000.0;
  o.max_txns_per_worker = kTxnsPerWorker;
  return o;
}

// Full five-type mix over a seeded Delivery backlog no capped run can
// exhaust, so delivered order contents stay load-deterministic across the
// clean run and any crash-resumed run.
workload::tpcc::TpccScale CrashScale() {
  workload::tpcc::TpccScale s;
  s.warehouses = 2;
  s.customers_per_district = 60;
  s.items = 200;
  s.order_ring_capacity = 1024;
  s.seeded_orders = 20;
  s.mix = workload::tpcc::FullTpccMix();
  return s;
}

// One durable engine configuration: how many cores run transactions, how
// the lock space is partitioned, and where its wal producer ids live in
// worker-id space (driver engines: producer p is worker p; ORTHRUS:
// producer p is exec thread p = worker num_cc + p).
struct EngineCase {
  const char* name;
  int cores;
  int partitions;
  int producer_base;
  int n_producers;
  std::function<std::unique_ptr<engine::Engine>(const engine::EngineOptions&)>
      make;
};

std::vector<EngineCase> DurabilityEngines() {
  std::vector<EngineCase> cases;
  cases.push_back(
      {"2pl-waitdie", kWorkers, kWorkers, 0, kWorkers,
       [](const engine::EngineOptions& o) -> std::unique_ptr<engine::Engine> {
         return std::make_unique<engine::TwoPlEngine>(
             o, engine::DeadlockPolicyKind::kWaitDie);
       }});
  cases.push_back(
      {"deadlockfree", kWorkers, kWorkers, 0, kWorkers,
       [](const engine::EngineOptions& o) -> std::unique_ptr<engine::Engine> {
         return std::make_unique<engine::DeadlockFreeEngine>(o);
       }});
  cases.push_back(
      {"partitioned", kWorkers, kWorkers, 0, kWorkers,
       [](const engine::EngineOptions& o) -> std::unique_ptr<engine::Engine> {
         return std::make_unique<engine::PartitionedEngine>(o);
       }});
  cases.push_back(
      {"orthrus", kOrthrusCc + kWorkers, kOrthrusCc, kOrthrusCc, kWorkers,
       [](const engine::EngineOptions& o) -> std::unique_ptr<engine::Engine> {
         engine::OrthrusOptions oo;
         oo.num_cc = kOrthrusCc;
         oo.max_inflight = 1;
         return std::make_unique<engine::OrthrusEngine>(o, oo);
       }});
  return cases;
}

// Loads a fresh TPC-C database partitioned for `c` and runs the engine
// made by `c.make(o)`, returning the canonical digest and commit count.
struct TpccRun {
  std::uint64_t committed = 0;
  std::uint64_t digest = 0;
};

TEST(WalCrashReplay, KillAndRecoverMatchesTheCleanRunOnEveryEngine) {
  const workload::tpcc::TpccScale scale = CrashScale();
  const std::uint64_t want = kWorkers * kTxnsPerWorker;

  for (const EngineCase& c : DurabilityEngines()) {
    SCOPED_TRACE(c.name);

    // Durability off: the baseline the durable run must reproduce.
    std::uint64_t off_digest = 0;
    {
      workload::tpcc::TpccWorkload wl(scale);
      storage::Database db;
      wl.Load(&db, 1);
      db.partitioner().n = c.partitions;
      std::unique_ptr<engine::Engine> eng = c.make(CappedOptions(c.cores));
      hal::SimPlatform sim(c.cores, SimConfigFromEnv());
      const RunResult r = eng->Run(&sim, &db, wl);
      ASSERT_EQ(r.total.committed, want);
      off_digest = wl.CanonicalDigest(db);
    }

    // Clean durable run: same cap, same digest, plus a settled log.
    wal::DurabilityOptions dopts;
    workload::tpcc::TpccWorkload wl(scale);
    storage::Database db;
    wl.Load(&db, 1);
    db.partitioner().n = c.partitions;
    wal::GroupCommitLog log(dopts, &db, c.n_producers);
    engine::EngineOptions durable_opts = CappedOptions(c.cores);
    durable_opts.wal = &log;
    std::unique_ptr<engine::Engine> eng = c.make(durable_opts);
    hal::SimPlatform sim(c.cores + log.loggers(), SimConfigFromEnv());
    const RunResult r = eng->Run(&sim, &db, wl);
    ASSERT_EQ(r.total.committed, want);
    const std::uint64_t clean_digest = wl.CanonicalDigest(db);
    EXPECT_EQ(clean_digest, off_digest)
        << "group commit changed what the run commits";
    const hal::Cycles end = sim.GlobalClock();

    // Replay completeness: the final (clean-shutdown) images alone rebuild
    // the clean database with full per-producer credit.
    {
      workload::tpcc::TpccWorkload rwl(scale);
      storage::Database rdb;
      rwl.Load(&rdb, 1);
      const wal::RecoveryResult rec =
          wal::Recover(log.FinalImages(), c.n_producers, &rdb);
      EXPECT_EQ(rwl.CanonicalDigest(rdb), clean_digest);
      EXPECT_EQ(rec.frames_dropped, 0u);
      std::uint64_t durable_total = 0;
      for (const std::uint64_t d : rec.durable_per_producer)
        durable_total += d;
      EXPECT_EQ(durable_total, want);
    }

    // Kill at several virtual times: t = 0 (nothing synced yet — recovery
    // finds nothing and the resume re-runs everything) and two mid-run
    // points where some epochs are durable and some are lost.
    for (const double frac : {0.0, 0.35, 0.7}) {
      SCOPED_TRACE(frac);
      const hal::Cycles t =
          static_cast<hal::Cycles>(frac * static_cast<double>(end));
      workload::tpcc::TpccWorkload rwl(scale);
      storage::Database rdb;
      rwl.Load(&rdb, 1);
      rdb.partitioner().n = c.partitions;
      const wal::RecoveryResult rec =
          wal::Recover(log.CrashImagesAt(t), c.n_producers, &rdb);

      std::vector<std::uint64_t> credit(static_cast<std::size_t>(c.cores), 0);
      std::uint64_t resumed = 0;
      for (int p = 0; p < c.n_producers; ++p) {
        credit[static_cast<std::size_t>(c.producer_base + p)] =
            rec.durable_per_producer[static_cast<std::size_t>(p)];
        resumed += rec.durable_per_producer[static_cast<std::size_t>(p)];
      }
      SkippingWorkload skipped(&rwl, &credit);
      engine::EngineOptions resume_opts = CappedOptions(c.cores);
      resume_opts.resume_committed = &credit;
      std::unique_ptr<engine::Engine> resumed_eng = c.make(resume_opts);
      hal::SimPlatform resume_sim(c.cores, SimConfigFromEnv());
      const RunResult rr = resumed_eng->Run(&resume_sim, &rdb, skipped);
      EXPECT_EQ(rr.total.committed, want - resumed);
      EXPECT_EQ(rwl.CanonicalDigest(rdb), clean_digest)
          << "crash at " << t << " of " << end << " diverged after resume ("
          << resumed << " durable, " << rec.durable_epoch
          << " durable epochs)";
    }
  }
}

// --------------------------------------------------------------- recovery

// One durable 2PL run shared by the recovery-robustness assertions below.
struct DurableRunFixture {
  workload::tpcc::TpccScale scale;
  std::uint64_t clean_digest = 0;
  std::vector<std::vector<std::uint8_t>> images;

  DurableRunFixture() {
    scale.warehouses = 2;
    scale.customers_per_district = 60;
    scale.items = 200;
    scale.order_ring_capacity = 1024;  // default NewOrder/Payment mix
    workload::tpcc::TpccWorkload wl(scale);
    storage::Database db;
    wl.Load(&db, 1);
    db.partitioner().n = kWorkers;
    wal::DurabilityOptions dopts;
    wal::GroupCommitLog log(dopts, &db, kWorkers);
    engine::EngineOptions o = CappedOptions(kWorkers);
    o.wal = &log;
    engine::TwoPlEngine eng(o, engine::DeadlockPolicyKind::kWaitDie);
    hal::SimPlatform sim(kWorkers + log.loggers(), SimConfigFromEnv());
    const RunResult r = eng.Run(&sim, &db, wl);
    ORTHRUS_CHECK(r.total.committed == kWorkers * kTxnsPerWorker);
    clean_digest = wl.CanonicalDigest(db);
    images = log.FinalImages();
  }
};

TEST(WalRecovery, ReplayIsIdempotent) {
  DurableRunFixture fx;
  workload::tpcc::TpccWorkload wl(fx.scale);
  storage::Database db;
  wl.Load(&db, 1);

  const wal::RecoveryResult base = wal::Recover(fx.images, kWorkers, &db);
  EXPECT_EQ(wl.CanonicalDigest(db), fx.clean_digest);
  EXPECT_EQ(base.frames_dropped, 0u);
  EXPECT_EQ(base.txns_replayed, kWorkers * kTxnsPerWorker);
  EXPECT_GT(base.writes_applied, 0u);
  EXPECT_GT(base.durable_epoch, 0u);

  // Replaying the same images over the already-recovered database must be
  // a no-op on the final state: within one pass max-version-wins picks the
  // same final after-image for every row.
  const wal::RecoveryResult again = wal::Recover(fx.images, kWorkers, &db);
  EXPECT_EQ(wl.CanonicalDigest(db), fx.clean_digest);
  EXPECT_EQ(again.txns_replayed, base.txns_replayed);
  EXPECT_EQ(again.durable_epoch, base.durable_epoch);
}

TEST(WalRecovery, TornTailGarbageIsDropped) {
  DurableRunFixture fx;
  // Garbage past the last synced frame — the torn tail a crash mid-write
  // leaves behind. Recovery must drop it and lose nothing durable.
  std::vector<std::vector<std::uint8_t>> torn = fx.images;
  torn[0].insert(torn[0].end(), 13, std::uint8_t{0x5a});

  workload::tpcc::TpccWorkload wl(fx.scale);
  storage::Database db;
  wl.Load(&db, 1);
  const wal::RecoveryResult rec = wal::Recover(torn, kWorkers, &db);
  EXPECT_EQ(rec.frames_dropped, 1u);
  EXPECT_EQ(rec.txns_replayed, kWorkers * kTxnsPerWorker);
  EXPECT_EQ(wl.CanonicalDigest(db), fx.clean_digest);
}

TEST(WalRecovery, MidFrameTruncationShrinksTheDurablePrefixAndResumes) {
  DurableRunFixture fx;
  const wal::RecoveryResult base = [&fx] {
    workload::tpcc::TpccWorkload wl(fx.scale);
    storage::Database db;
    wl.Load(&db, 1);
    return wal::Recover(fx.images, kWorkers, &db);
  }();

  // Chop into partition 1's final frame (its last epoch seal): that
  // partition's sealed epoch drops, dragging the global durable epoch —
  // and with it some producers' credit — down with it.
  std::vector<std::vector<std::uint8_t>> chopped = fx.images;
  ASSERT_GT(chopped[1].size(), 5u);
  chopped[1].resize(chopped[1].size() - 5);

  workload::tpcc::TpccWorkload wl(fx.scale);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = kWorkers;
  const wal::RecoveryResult rec = wal::Recover(chopped, kWorkers, &db);
  EXPECT_EQ(rec.frames_dropped, 1u);
  EXPECT_LT(rec.durable_epoch, base.durable_epoch);
  EXPECT_LE(rec.txns_replayed, base.txns_replayed);

  // The shrunken prefix is still a valid resume point: re-running the
  // non-durable remainder reproduces the clean digest.
  std::vector<std::uint64_t> credit(kWorkers, 0);
  std::uint64_t resumed = 0;
  for (int p = 0; p < kWorkers; ++p) {
    credit[static_cast<std::size_t>(p)] =
        rec.durable_per_producer[static_cast<std::size_t>(p)];
    resumed += rec.durable_per_producer[static_cast<std::size_t>(p)];
  }
  SkippingWorkload skipped(&wl, &credit);
  engine::EngineOptions o = CappedOptions(kWorkers);
  o.resume_committed = &credit;
  engine::TwoPlEngine eng(o, engine::DeadlockPolicyKind::kWaitDie);
  hal::SimPlatform sim(kWorkers, SimConfigFromEnv());
  const RunResult r = eng.Run(&sim, &db, skipped);
  EXPECT_EQ(r.total.committed, kWorkers * kTxnsPerWorker - resumed);
  EXPECT_EQ(wl.CanonicalDigest(db), fx.clean_digest);
}

// ---------------------------------------------------------- multi-logger

// Two loggers split the partition streams statically (partition p belongs
// to logger p % 2) while producers keep committing through short epochs.
// The race detector runs armed and fatal, so the `wal.stream`
// single-appender tag checks that only each stream's owner ever appends.
// The log must recover to the exact clean state, and every stream must
// have been sealed by its owner.
TEST(WalMultiLogger, TwoLoggersPreserveTheLog) {
  workload::tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.order_ring_capacity = 1024;

  workload::tpcc::TpccWorkload wl(scale);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = kWorkers;
  wal::DurabilityOptions dopts;
  dopts.loggers = 2;
  dopts.group_commit_seconds = 5e-6;  // short epochs: many seals
  wal::GroupCommitLog log(dopts, &db, kWorkers);
  engine::EngineOptions o = CappedOptions(kWorkers);
  o.wal = &log;
  engine::TwoPlEngine eng(o, engine::DeadlockPolicyKind::kWaitDie);
  hal::SimConfig cfg;
  cfg.race_detect = true;
  cfg.race_report_fatal = true;
  hal::SimPlatform sim(kWorkers + log.loggers(), cfg);
  const RunResult r = eng.Run(&sim, &db, wl);
  ASSERT_EQ(r.total.committed, kWorkers * kTxnsPerWorker);

  workload::tpcc::TpccWorkload rwl(scale);
  storage::Database rdb;
  rwl.Load(&rdb, 1);
  const wal::RecoveryResult rec =
      wal::Recover(log.FinalImages(), kWorkers, &rdb);
  // The durable epoch is the minimum over partitions of the largest sealed
  // epoch: nonzero means every partition's log holds a seal frame.
  EXPECT_GE(rec.durable_epoch, 1u);
  EXPECT_EQ(rec.frames_dropped, 0u);
  EXPECT_EQ(rec.txns_replayed, kWorkers * kTxnsPerWorker);
  EXPECT_EQ(rwl.CanonicalDigest(rdb), wl.CanonicalDigest(db));
}

// ------------------------------------------------------- time-bound ORTHRUS

std::uint64_t KvDigest(const storage::Database& db) {
  const storage::Table* table = db.GetTable(workload::KvWorkload::kTableId);
  Fnv1a fnv;
  for (std::uint64_t slot = 0; slot < table->size(); ++slot) {
    const auto* row =
        static_cast<const std::uint64_t*>(table->RowBySlot(slot));
    fnv.Mix(row[0]);
    fnv.Mix(row[1]);
  }
  return fnv.digest();
}

// A deadline-bound ORTHRUS run shuts down with group commits still in
// flight: exec threads stop admitting, drain their pending commits, and
// retire their wal producers. Neither a commit nor a log fragment is lost
// or duplicated — the final log replays to the exact live state and the
// durable credits account for every acknowledged commit.
TEST(WalOrthrus, TimeBoundRunReplaysToTheLiveState) {
  engine::OrthrusOptions oo;
  oo.num_cc = 2;
  workload::KvConfig kv;
  kv.num_records = 8000;
  kv.num_partitions = 2;
  workload::KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  const int n_exec = 8 - oo.num_cc;
  wal::DurabilityOptions dopts;
  // The default max_inflight (8) pipelines deeper than the default arena.
  dopts.arena_records = 512;
  wal::GroupCommitLog log(dopts, &db, n_exec);
  engine::EngineOptions o;
  o.num_cores = 8;
  o.duration_seconds = 0.004;
  o.wal = &log;
  engine::OrthrusEngine eng(o, oo);
  hal::SimPlatform sim(8 + log.loggers(), SimConfigFromEnv());
  const RunResult r = eng.Run(&sim, &db, wl);
  ASSERT_GT(r.total.committed, 0u);
  // Conservation with acknowledgement deferred to group commit: every
  // acknowledged commit applied exactly once.
  EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);

  workload::KvWorkload rwl(kv);
  storage::Database rdb;
  rwl.Load(&rdb, 1);
  const wal::RecoveryResult rec =
      wal::Recover(log.FinalImages(), n_exec, &rdb);
  EXPECT_EQ(KvDigest(rdb), KvDigest(db));
  std::uint64_t durable_total = 0;
  for (const std::uint64_t d : rec.durable_per_producer) durable_total += d;
  EXPECT_EQ(durable_total, r.total.committed);
}

// Crash points land on durable-epoch boundaries, where group commit has
// applied whole transactions. The pair workload makes a partial apply
// visible: rows come in pairs (2p, 2p+1) on different lock partitions,
// every writer X-locks a pair and stamps one value over every word of both
// rows, and every reader S-locks a pair and counts a torn row (its words
// disagree) or a mixed pair (the two rows disagree).
constexpr std::uint32_t kPairTable = 0;
constexpr std::uint64_t kPairs = 8;  // few pairs: hot, writers overlap
constexpr int kPairWords = 8;

struct PairStats {
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> mixed{0};
};

class PairLogic final : public txn::TxnLogic {
 public:
  PairLogic(PairStats* stats, bool writer) : stats_(stats), writer_(writer) {}

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const std::uint64_t p = *t->Params<std::uint64_t>();
    const txn::LockMode m =
        writer_ ? txn::LockMode::kExclusive : txn::LockMode::kShared;
    t->accesses.push_back({kPairTable, m, 2 * p, nullptr});
    t->accesses.push_back({kPairTable, m, 2 * p + 1, nullptr});
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const storage::Table* tbl = ctx.db->GetTable(kPairTable);
    const hal::Cycles op = tbl->RowAccessCost() +
                           tbl->cost_model().op_compute_cycles;
    ctx.ChargeOp(op);
    ctx.ChargeOp(op);
    auto* a = static_cast<std::uint64_t*>(t->accesses[0].row);
    auto* b = static_cast<std::uint64_t*>(t->accesses[1].row);
    if (writer_) {
      const std::uint64_t v = a[0] + 1;
      for (int w = 0; w < kPairWords; ++w) a[w] = b[w] = v;
      stats_->writes.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    bool torn = false;
    for (int w = 1; w < kPairWords; ++w) {
      torn |= a[w] != a[0] || b[w] != b[0];
    }
    if (torn) stats_->torn.fetch_add(1, std::memory_order_relaxed);
    if (a[0] != b[0]) stats_->mixed.fetch_add(1, std::memory_order_relaxed);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  PairStats* stats_;
  bool writer_;
};

class PairWorkload final : public workload::Workload {
 public:
  void Load(storage::Database* db, int /*unused*/) override {
    // key % 2 puts the two rows of every pair on different lock
    // partitions: every transaction is cross-partition.
    db->partitioner().n = 2;
    storage::Table* t = db->CreateTable(kPairTable, "pair", 2 * kPairs,
                                        kPairWords * sizeof(std::uint64_t));
    for (std::uint64_t k = 0; k < 2 * kPairs; ++k) t->Insert(k);
  }

  std::unique_ptr<workload::TxnSource> MakeSource(int worker_id) const
      override {
    return std::make_unique<Source>(worker_id, &writer_, &reader_);
  }

  std::string name() const override { return "pair"; }

  PairStats& stats() { return stats_; }

 private:
  class Source final : public workload::TxnSource {
   public:
    Source(int worker_id, txn::TxnLogic* writer, txn::TxnLogic* reader)
        : rng_(0x51AFull + static_cast<std::uint64_t>(worker_id)),
          writer_(writer),
          reader_(reader) {}

    void Next(txn::Txn* t) override {
      t->ResetForReuse();
      t->logic = rng_.Percent(50) ? reader_ : writer_;
      *t->Params<std::uint64_t>() = rng_.NextU64(kPairs);
    }

   private:
    Rng rng_;
    txn::TxnLogic* writer_;
    txn::TxnLogic* reader_;
  };

  mutable PairStats stats_;
  mutable PairLogic writer_{&stats_, /*writer=*/true};
  mutable PairLogic reader_{&stats_, /*writer=*/false};
};

// Checks the pair invariant over a main slab and returns the sum of the
// pair values, which is the number of writers applied to it.
std::uint64_t CheckSlabPairs(const storage::Database& db) {
  const storage::Table* t = db.GetTable(kPairTable);
  std::uint64_t sum = 0;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    const auto* a = static_cast<const std::uint64_t*>(t->RowBySlot(2 * p));
    const auto* b =
        static_cast<const std::uint64_t*>(t->RowBySlot(2 * p + 1));
    for (int w = 0; w < kPairWords; ++w) {
      EXPECT_EQ(a[w], a[0]) << "torn recovered row, pair " << p;
      EXPECT_EQ(b[w], b[0]) << "torn recovered row, pair " << p;
    }
    EXPECT_EQ(a[0], b[0]) << "mixed recovered pair " << p;
    sum += a[0];
  }
  return sum;
}

// Recovery from a durable ORTHRUS run killed at a quarter, half and three
// quarters of its virtual time, and after a clean shutdown: every
// recovered pair is whole, and the clean log holds exactly the committed
// writers.
TEST(WalOrthrus, CrashPointsRecoverWholePairs) {
  PairWorkload wl;
  storage::Database db;
  wl.Load(&db, 1);
  engine::OrthrusOptions oo;
  oo.num_cc = 2;
  const int n_exec = 8 - oo.num_cc;
  wal::DurabilityOptions dopts;
  dopts.arena_records = 512;
  wal::GroupCommitLog log(dopts, &db, n_exec);
  engine::EngineOptions o;
  o.num_cores = 8;
  o.duration_seconds = 0.05;
  o.max_txns_per_worker = 150;
  o.wal = &log;
  engine::OrthrusEngine eng(o, oo);
  hal::SimPlatform sim(8 + log.loggers(), SimConfigFromEnv());
  const RunResult r = eng.Run(&sim, &db, wl);
  const hal::Cycles end = sim.GlobalClock();

  const PairStats& s = wl.stats();
  ASSERT_GT(r.total.committed, 0u);
  EXPECT_GT(s.writes.load(), 0u);
  EXPECT_GT(s.reads.load(), 0u);
  EXPECT_EQ(s.torn.load(), 0u);
  EXPECT_EQ(s.mixed.load(), 0u);

  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    SCOPED_TRACE(frac);
    PairWorkload rwl;
    storage::Database rdb;
    rwl.Load(&rdb, 1);
    const auto images =
        frac == 1.0 ? log.FinalImages()
                    : log.CrashImagesAt(static_cast<hal::Cycles>(
                          frac * static_cast<double>(end)));
    wal::Recover(images, n_exec, &rdb);
    const std::uint64_t recovered = CheckSlabPairs(rdb);
    if (frac == 1.0) {
      EXPECT_EQ(recovered, s.writes.load());
    }
  }
}

// --------------------------------------------------------- option checks

// One death test per option CHECK on the durability path: each aborts with
// its own message, so a misconfiguration names the option it trips.
void BuildLog(const wal::DurabilityOptions& dopts, int partitions,
              int n_producers) {
  workload::KvConfig kv;
  kv.num_records = 1000;
  workload::KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = partitions;
  wal::GroupCommitLog log(dopts, &db, n_producers);
}

TEST(WalOptionsDeathTest, NeedsALogger) {
  wal::DurabilityOptions dopts;
  dopts.loggers = 0;
  EXPECT_DEATH(BuildLog(dopts, 2, 2), "wal needs loggers >= 1");
}

TEST(WalOptionsDeathTest, NeedsAProducer) {
  EXPECT_DEATH(BuildLog(wal::DurabilityOptions(), 2, 0),
               "wal needs n_producers >= 1");
}

TEST(WalOptionsDeathTest, NeedsAPartition) {
  EXPECT_DEATH(BuildLog(wal::DurabilityOptions(), 0, 2),
               "wal needs partitions >= 1");
}

TEST(WalOptionsDeathTest, ArenaFitsOnePipelinedTransaction) {
  wal::DurabilityOptions dopts;
  dopts.arena_records = 2 * wal::kMaxTxnFragments - 1;
  EXPECT_DEATH(BuildLog(dopts, 2, 2),
               "wal arena too small for one pipelined transaction");
}

// The two WAL checks in OrthrusEngine::Run, on an otherwise valid
// 2 CC + 2 exec configuration.
void RunDurableOrthrus(const wal::DurabilityOptions& dopts, int n_producers) {
  engine::OrthrusOptions oo;
  oo.num_cc = 2;
  workload::KvConfig kv;
  kv.num_records = 1000;
  kv.num_partitions = oo.num_cc;
  workload::KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  wal::GroupCommitLog log(dopts, &db, n_producers);
  engine::EngineOptions o = CappedOptions(4);
  o.wal = &log;
  engine::OrthrusEngine eng(o, oo);
  hal::SimPlatform sim(4 + log.loggers(), SimConfigFromEnv());
  eng.Run(&sim, &db, wl);
}

TEST(WalOptionsDeathTest, OrthrusNeedsOneProducerPerExecThread) {
  wal::DurabilityOptions dopts;
  dopts.arena_records = 512;
  EXPECT_DEATH(RunDurableOrthrus(dopts, 3),
               "one wal producer slot per exec thread");
}

TEST(WalOptionsDeathTest, OrthrusArenaFitsTheInflightWindow) {
  // Default max_inflight (8) needs (8 + 1) * kMaxTxnFragments = 432 slots.
  EXPECT_DEATH(RunDurableOrthrus(wal::DurabilityOptions(), 2),
               "wal fragment arena too small for the in-flight window");
}

// ----------------------------------------------------------------- native

// The logger role and the producer protocol must be thread-safe under true
// concurrency, not just under the cooperative simulator: fragments cross
// real cores to two loggers, and the epoch/durable counters are genuinely
// shared. A capped native run still
// commits exactly the first K of each worker's stream (workers retry until
// commit), so the recovered database must digest identically to the live
// one even though the interleaving is nondeterministic.
TEST(WalNative, DurableRunRecoversOnNativeThreads) {
  workload::tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.order_ring_capacity = 1024;

  workload::tpcc::TpccWorkload wl(scale);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = kWorkers;
  wal::DurabilityOptions dopts;
  dopts.loggers = 2;
  wal::GroupCommitLog log(dopts, &db, kWorkers);
  engine::EngineOptions o = CappedOptions(kWorkers);
  o.duration_seconds = 30.0;  // wall seconds; the cap ends the run first
  o.wal = &log;
  engine::TwoPlEngine eng(o, engine::DeadlockPolicyKind::kWaitDie);
  hal::NativePlatform p(kWorkers + log.loggers());
  const RunResult r = eng.Run(&p, &db, wl);
  ASSERT_EQ(r.total.committed, kWorkers * kTxnsPerWorker);

  workload::tpcc::TpccWorkload rwl(scale);
  storage::Database rdb;
  rwl.Load(&rdb, 1);
  const wal::RecoveryResult rec =
      wal::Recover(log.FinalImages(), kWorkers, &rdb);
  EXPECT_EQ(rec.frames_dropped, 0u);
  EXPECT_EQ(rec.txns_replayed, kWorkers * kTxnsPerWorker);
  EXPECT_EQ(rwl.CanonicalDigest(rdb), wl.CanonicalDigest(db));
}

// ORTHRUS with durability on real threads: exec threads capture redo
// fragments while their locks are held on CC threads, loggers seal epochs
// concurrently, and the deadline stops the run with commits in flight.
TEST(WalNative, OrthrusDurableOnNativeThreads) {
  // The run is wall-clock bounded; a heavily loaded or sanitizer-slowed
  // host can commit nothing inside a short window. Retry with a wider
  // window (fresh database + log each attempt) until work flows.
  for (double secs = 0.05;; secs *= 4) {
    engine::OrthrusOptions oo;
    oo.num_cc = 2;
    workload::KvConfig kv;
    kv.num_records = 4000;
    kv.num_partitions = 2;
    workload::KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    const int n_exec = 6 - oo.num_cc;
    wal::DurabilityOptions dopts;
    dopts.arena_records = 512;
    wal::GroupCommitLog log(dopts, &db, n_exec);
    engine::EngineOptions o;
    o.num_cores = 6;
    o.duration_seconds = secs;  // wall seconds on the native platform
    o.wal = &log;
    engine::OrthrusEngine eng(o, oo);
    hal::NativePlatform p(6 + log.loggers());
    const RunResult r = eng.Run(&p, &db, wl);
    if (r.total.committed == 0 && secs < 3.0) continue;
    ASSERT_GT(r.total.committed, 0u);
    EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);

    workload::KvWorkload rwl(kv);
    storage::Database rdb;
    rwl.Load(&rdb, 1);
    const wal::RecoveryResult rec =
        wal::Recover(log.FinalImages(), n_exec, &rdb);
    EXPECT_EQ(KvDigest(rdb), KvDigest(db));
    std::uint64_t durable_total = 0;
    for (const std::uint64_t d : rec.durable_per_producer) durable_total += d;
    EXPECT_EQ(durable_total, r.total.committed);
    return;
  }
}

}  // namespace
}  // namespace orthrus
