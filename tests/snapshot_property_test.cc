// Adversarial snapshot-consistency properties for the epoch-versioned read
// path. The workload is built so any protocol violation is directly
// observable from inside a reader:
//
//  * rows come in pairs (2p, 2p+1) that straddle lock partitions;
//  * every writer X-locks a pair and stamps ONE value across all words of
//    BOTH rows, so after any committed prefix each row is internally
//    uniform and both rows of a pair are equal;
//  * every reader S-locks a pair — all-shared access sets are classified
//    read-only at admission, so with snapshot_reads on they execute on the
//    lock-free snapshot path — and asserts it saw neither a *torn* row
//    (words within one row disagree: it overlapped a writer mid-install)
//    nor a *mixed-epoch* pair (the two rows disagree: its reads spanned
//    two different snapshots).
//
// Scenarios cover the two adversarial interleavings the protocol must
// survive: plain snapshot runs across seeds (writer mid-install), and
// WAL-attached runs whose epoch clock is driven by the logger plus
// recovery at arbitrary crash points (recovery boundary). Run under
// ORTHRUS_RACE_DETECT=1 the same assertions double as a happens-before
// proof obligation on the version words.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/orthrus/orthrus_engine.h"
#include "hal/hal.h"
#include "hal/sim_platform.h"
#include "storage/database.h"
#include "txn/txn.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace orthrus {
namespace {

constexpr std::uint32_t kTableId = 0;
// Few pairs = hot: readers continually overlap in-flight writers.
constexpr std::uint64_t kPairs = 8;
constexpr int kWordsPerRow = 8;
constexpr std::uint32_t kRowBytes = kWordsPerRow * sizeof(std::uint64_t);

struct PairParams {
  std::uint64_t pair = 0;
};

// Shared across all sources/logics of one run; plain std::atomic (invisible
// to the race detector on purpose — it is test instrumentation, not
// protocol state).
struct PairStats {
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> mixed{0};
};

hal::Cycles PairOpCost(const txn::ExecContext& ctx) {
  const storage::Table* t = ctx.db->GetTable(kTableId);
  return t->RowAccessCost() + t->cost_model().op_compute_cycles;
}

class PairWriteLogic final : public txn::TxnLogic {
 public:
  explicit PairWriteLogic(PairStats* stats) : stats_(stats) {}

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const std::uint64_t p = t->Params<PairParams>()->pair;
    t->accesses.reserve(2);
    t->accesses.push_back(
        {kTableId, txn::LockMode::kExclusive, 2 * p, nullptr});
    t->accesses.push_back(
        {kTableId, txn::LockMode::kExclusive, 2 * p + 1, nullptr});
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const hal::Cycles op_cost = PairOpCost(ctx);
    auto* a = static_cast<std::uint64_t*>(t->accesses[0].row);
    auto* b = static_cast<std::uint64_t*>(t->accesses[1].row);
    ctx.ChargeOp(op_cost);
    ctx.ChargeOp(op_cost);
    hal::RaceCheck(a, kRowBytes, /*is_write=*/true, "pair.row");
    hal::RaceCheck(b, kRowBytes, /*is_write=*/true, "pair.row");
    // One value over every word of both rows: leaves no state a consistent
    // snapshot could legally report as non-uniform.
    const std::uint64_t v = a[0] + 1;
    for (int w = 0; w < kWordsPerRow; ++w) a[w] = v;
    for (int w = 0; w < kWordsPerRow; ++w) b[w] = v;
    stats_->writes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  PairStats* stats_;
};

class PairReadLogic final : public txn::TxnLogic {
 public:
  explicit PairReadLogic(PairStats* stats) : stats_(stats) {}

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const std::uint64_t p = t->Params<PairParams>()->pair;
    t->accesses.reserve(2);
    t->accesses.push_back({kTableId, txn::LockMode::kShared, 2 * p, nullptr});
    t->accesses.push_back(
        {kTableId, txn::LockMode::kShared, 2 * p + 1, nullptr});
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const hal::Cycles op_cost = PairOpCost(ctx);
    const auto* a = static_cast<const std::uint64_t*>(t->accesses[0].row);
    const auto* b = static_cast<const std::uint64_t*>(t->accesses[1].row);
    ctx.ChargeOp(op_cost);
    ctx.ChargeOp(op_cost);
    hal::RaceCheck(a, kRowBytes, /*is_write=*/false, "pair.row");
    hal::RaceCheck(b, kRowBytes, /*is_write=*/false, "pair.row");
    bool torn = false;
    for (int w = 1; w < kWordsPerRow; ++w) {
      torn |= a[w] != a[0];
      torn |= b[w] != b[0];
    }
    if (torn) stats_->torn.fetch_add(1, std::memory_order_relaxed);
    if (a[0] != b[0]) stats_->mixed.fetch_add(1, std::memory_order_relaxed);
    stats_->reads.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  PairStats* stats_;
};

class PairWorkload final : public workload::Workload {
 public:
  explicit PairWorkload(std::uint64_t seed)
      : seed_(seed),
        writer_(std::make_unique<PairWriteLogic>(&stats_)),
        reader_(std::make_unique<PairReadLogic>(&stats_)) {}

  void Load(storage::Database* db, int /*num_table_partitions*/) override {
    // key % 2 partitioning puts the two rows of every pair on different
    // lock partitions: writers are always cross-partition.
    db->partitioner().n = 2;
    db->partitioner().mode = storage::Partitioner::Mode::kModulo;
    storage::Table* t =
        db->CreateTable(kTableId, "pair", 2 * kPairs, kRowBytes, 1);
    for (std::uint64_t k = 0; k < 2 * kPairs; ++k) {
      auto* row = static_cast<std::uint64_t*>(t->Insert(k, 0));
      for (int w = 0; w < kWordsPerRow; ++w) row[w] = 0;
    }
  }

  std::unique_ptr<workload::TxnSource> MakeSource(int worker_id) const
      override {
    return std::make_unique<Source>(seed_, worker_id, writer_.get(),
                                    reader_.get());
  }

  std::string name() const override { return "pair-snapshot"; }

  PairStats& stats() { return stats_; }

 private:
  class Source final : public workload::TxnSource {
   public:
    Source(std::uint64_t seed, int worker_id, txn::TxnLogic* writer,
           txn::TxnLogic* reader)
        : rng_(seed * 0x9E3779B97F4A7C15ull + 0x51AF + worker_id),
          writer_(writer),
          reader_(reader) {}

    void Next(txn::Txn* t) override {
      t->ResetForReuse();
      t->logic = rng_.Percent(50) ? reader_ : writer_;
      t->Params<PairParams>()->pair = rng_.NextU64(kPairs);
    }

   private:
    Rng rng_;
    txn::TxnLogic* writer_;
    txn::TxnLogic* reader_;
  };

  std::uint64_t seed_;
  mutable PairStats stats_;
  std::unique_ptr<PairWriteLogic> writer_;
  std::unique_ptr<PairReadLogic> reader_;
};

// Pair invariant over a main slab (post-run / post-recovery): every row
// uniform, both rows of each pair equal. Returns the sum of pair values
// (== committed writer count when checked against the run's own slab).
std::uint64_t CheckSlabPairs(const storage::Database& db) {
  const storage::Table* t = db.GetTable(kTableId);
  std::uint64_t sum = 0;
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    const auto* a = static_cast<const std::uint64_t*>(t->RowBySlot(2 * p));
    const auto* b =
        static_cast<const std::uint64_t*>(t->RowBySlot(2 * p + 1));
    for (int w = 0; w < kWordsPerRow; ++w) {
      EXPECT_EQ(a[w], a[0]) << "torn recovered row, pair " << p;
      EXPECT_EQ(b[w], b[0]) << "torn recovered row, pair " << p;
    }
    EXPECT_EQ(a[0], b[0]) << "mixed recovered pair " << p;
    sum += a[0];
  }
  return sum;
}

engine::EngineOptions BaseOptions(int cores) {
  engine::EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = 0.05;
  o.max_txns_per_worker = 150;
  o.lock_buckets = 1 << 10;
  return o;
}

// ------------------------------------------------- writer mid-install

TEST(SnapshotProperty, ReadersNeverObserveTornOrMixedPairs) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 51ull, 97ull}) {
    PairWorkload wl(seed);
    storage::Database db;
    wl.Load(&db, 1);

    engine::OrthrusOptions oo;
    oo.num_cc = 2;
    oo.snapshot_reads = true;
    engine::OrthrusEngine eng(BaseOptions(6), oo);
    hal::SimPlatform sim(6);
    const RunResult r = eng.Run(&sim, &db, wl);

    const PairStats& s = wl.stats();
    ASSERT_GT(r.total.committed, 0u) << "seed " << seed;
    EXPECT_GT(s.writes.load(), 0u) << "seed " << seed;
    EXPECT_GT(s.reads.load(), 0u) << "seed " << seed;
    EXPECT_EQ(s.torn.load(), 0u) << "seed " << seed;
    EXPECT_EQ(s.mixed.load(), 0u) << "seed " << seed;
    // Every committed txn ran exactly once, and main-slab state reflects
    // exactly the committed writers.
    EXPECT_EQ(s.writes.load() + s.reads.load(), r.total.committed);
    EXPECT_EQ(CheckSlabPairs(db), s.writes.load());
  }
}

// ------------------------------------------------- WAL recovery boundary

TEST(SnapshotProperty, WalRecoveryBoundary) {
  PairWorkload wl(13);
  storage::Database db;
  wl.Load(&db, 1);

  engine::OrthrusOptions oo;
  oo.num_cc = 2;
  oo.snapshot_reads = true;
  const int n_exec = 8 - oo.num_cc;
  wal::DurabilityOptions dopts;
  dopts.arena_records = 512;
  wal::GroupCommitLog log(dopts, &db, n_exec);
  engine::EngineOptions o = BaseOptions(8);
  o.wal = &log;
  engine::OrthrusEngine eng(o, oo);
  hal::SimPlatform sim(8 + log.loggers());
  const RunResult r = eng.Run(&sim, &db, wl);
  const hal::Cycles end = sim.GlobalClock();

  const PairStats& s = wl.stats();
  ASSERT_GT(r.total.committed, 0u);
  EXPECT_GT(s.writes.load(), 0u);
  EXPECT_GT(s.reads.load(), 0u);
  EXPECT_EQ(s.torn.load(), 0u);
  EXPECT_EQ(s.mixed.load(), 0u);

  // Full recovery reproduces the committed-writer state exactly; crash
  // points land on durable-epoch boundaries, where group commit has
  // applied whole transactions — the pair invariant must hold at every
  // one even though the crash truncates the writer history.
  for (const double frac : {0.25, 0.5, 0.75, 1.0}) {
    PairWorkload rwl(13);
    storage::Database rdb;
    rwl.Load(&rdb, 1);
    const auto images =
        frac == 1.0 ? log.FinalImages()
                    : log.CrashImagesAt(static_cast<hal::Cycles>(
                          frac * static_cast<double>(end)));
    wal::Recover(images, n_exec, &rdb);
    const std::uint64_t recovered = CheckSlabPairs(rdb);
    if (frac == 1.0) {
      // Read-only commits bypass the WAL, so durable state reflects the
      // writer subset of the committed count.
      EXPECT_EQ(recovered, s.writes.load());
    }

    // Recovery boundary for the *snapshot* machinery: reseeding version
    // slabs from the recovered images must give readers a consistent
    // epoch-0 baseline immediately (before any tick or install).
    rdb.EnableSnapshotVersions(/*n_hb_slots=*/1, /*tick_interval_cycles=*/20000);
    storage::Table* t = rdb.GetTable(kTableId);
    const std::uint64_t read_epoch = rdb.epoch_clock()->ReadEpoch();
    std::uint64_t snap[kWordsPerRow];
    for (std::uint64_t p = 0; p < kPairs; ++p) {
      std::uint64_t first = 0;
      for (int side = 0; side < 2; ++side) {
        const std::uint64_t slot = 2 * p + static_cast<std::uint64_t>(side);
        ASSERT_TRUE(t->SnapshotRead(slot, read_epoch, snap));
        for (int w = 0; w < kWordsPerRow; ++w) {
          EXPECT_EQ(snap[w], snap[0]) << "torn reseeded version, slot "
                                      << slot;
        }
        EXPECT_EQ(snap[0],
                  static_cast<const std::uint64_t*>(t->RowBySlot(slot))[0])
            << "reseeded version diverges from recovered slab, slot " << slot;
        if (side == 0) {
          first = snap[0];
        } else {
          EXPECT_EQ(snap[0], first) << "mixed reseeded pair " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace orthrus
