// Cross-engine equivalence: on the deterministic simulator with a fixed
// seed and a bounded per-worker commit budget, every engine architecture
// must commit exactly the same multiset of transactions — the first K from
// each of the same per-worker YCSB streams (engines retry aborted
// transactions until they commit, and the KV access sets are static, so no
// transaction is ever skipped). Committed RMW effects are commutative
// (row[0] += 1, row[1] ^= key), so identical committed multisets imply
// bit-identical final tables regardless of the execution interleaving each
// architecture produces. This pins the engines to one another: a lost,
// duplicated, or phantom grant anywhere in the lock or message-passing
// plumbing shows up as a digest mismatch.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/sim_platform.h"
#include "sim_env.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/ycsb.h"

namespace orthrus {
namespace {

constexpr int kExecWorkers = 3;   // transaction-issuing workers per engine
constexpr std::uint64_t kTxnsPerWorker = 25;
constexpr int kOrthrusCc = 2;

// ORTHRUS seeds its exec-thread sources with (num_cc + exec_id); the
// shared-everything engines use the bare worker id. This shim realigns the
// streams so every engine consumes sources 0..kExecWorkers-1.
class ShiftedWorkload final : public workload::Workload {
 public:
  ShiftedWorkload(workload::Workload* inner, int shift)
      : inner_(inner), shift_(shift) {}

  void Load(storage::Database* db, int unused) override {
    inner_->Load(db, unused);
  }
  std::unique_ptr<workload::TxnSource> MakeSource(int worker_id) const
      override {
    return inner_->MakeSource(worker_id - shift_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  workload::Workload* inner_;
  int shift_;
};

workload::YcsbSpec Spec() {
  workload::YcsbSpec spec;
  spec.contention = workload::YcsbContention::kHigh;
  spec.op = workload::YcsbOp::kRmw;
  spec.placement = workload::YcsbPlacement::kRandom;  // keys ignore the
                                                      // partition universe
  spec.num_records = 4000;
  spec.row_bytes = 32;
  spec.seed = 1234;
  return spec;
}

engine::EngineOptions Options(int cores) {
  engine::EngineOptions o;
  o.num_cores = cores;
  // Virtual-time budget far beyond what K transactions need: the commit
  // cap, not the clock, ends every run.
  o.duration_seconds = 1000.0;
  o.max_txns_per_worker = kTxnsPerWorker;
  return o;
}

struct Outcome {
  std::uint64_t committed = 0;
  std::uint64_t counter_sum = 0;
  std::uint64_t digest = 0;
  hal::Cycles clock = 0;  // the sim's GlobalClock() after the run
};

// FNV-1a over every row's verifiable words, in slot order.
std::uint64_t TableDigest(const storage::Database& db) {
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

// Loads a fresh database (unsplit table), repoints the partition universe
// at `partitions`, runs the engine, and digests the result.
Outcome RunOne(engine::Engine* eng, workload::Workload* wl, int cores,
               int partitions) {
  workload::KvWorkload kv(workload::MakeYcsbConfig(Spec()));
  storage::Database db;
  kv.Load(&db, 1);
  db.partitioner().n = partitions;
  hal::SimPlatform sim(cores, SimConfigFromEnv());
  const RunResult r = eng->Run(&sim, &db, *wl);
  Outcome out;
  out.committed = r.total.committed;
  out.counter_sum = kv.SumCounters(db);
  out.digest = TableDigest(db);
  out.clock = sim.GlobalClock();
  return out;
}

TEST(EngineEquivalence, AllEnginesCommitTheSameTransactionSet) {
  workload::KvWorkload kv(workload::MakeYcsbConfig(Spec()));
  ShiftedWorkload plain(&kv, 0);
  ShiftedWorkload orthrus_aligned(&kv, kOrthrusCc);

  std::vector<std::pair<std::string, Outcome>> outcomes;

  {
    engine::TwoPlEngine eng(Options(kExecWorkers),
                            engine::DeadlockPolicyKind::kWaitDie);
    outcomes.emplace_back(eng.name(),
                          RunOne(&eng, &plain, kExecWorkers, kExecWorkers));
  }
  {
    engine::DeadlockFreeEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(eng.name(),
                          RunOne(&eng, &plain, kExecWorkers, kExecWorkers));
  }
  {
    engine::PartitionedEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(eng.name(),
                          RunOne(&eng, &plain, kExecWorkers, kExecWorkers));
  }
  // ORTHRUS must agree with the shared-everything engines. The
  // clock-level pins are OrthrusRunsAreDeterministic plus the exact
  // message-count test in orthrus_engine_test.
  {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    // One transaction in flight per exec thread: the commit cap is checked
    // before each issue, so each worker commits exactly its first K.
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    outcomes.emplace_back(eng.name(),
                          RunOne(&eng, &orthrus_aligned,
                                 kOrthrusCc + kExecWorkers, kOrthrusCc));
  }
  const std::uint64_t want_committed = kExecWorkers * kTxnsPerWorker;
  const std::uint64_t want_counters = want_committed * 10;  // 10 RMW ops/txn
  for (const auto& [name, out] : outcomes) {
    EXPECT_EQ(out.committed, want_committed) << name;
    EXPECT_EQ(out.counter_sum, want_counters) << name;
    EXPECT_EQ(out.digest, outcomes.front().second.digest)
        << name << " diverged from " << outcomes.front().first;
  }
}

// Mixed read/write stream, the mix `kv_hot_read90` runs natively: half the
// transactions are read-only and take shared locks, in a queued lock
// table (2PL wait-die) and in ORTHRUS's partitioned CC tables. Every
// engine still commits exactly the first K transactions of each worker's stream, and
// read-only transactions write nothing, so the commit counts, the RMW
// counter sums and the final table digests must all match.
TEST(EngineEquivalence, ReadMixMatchesAcrossLockingEngines) {
  workload::YcsbSpec spec = Spec();
  workload::KvConfig cfg = workload::MakeYcsbConfig(spec);
  cfg.pct_read_only = 50;
  workload::KvWorkload kv(cfg);
  ShiftedWorkload plain(&kv, 0);
  ShiftedWorkload orthrus_aligned(&kv, kOrthrusCc);

  const auto run_plain = [&](engine::Engine* eng) {
    workload::KvWorkload fresh(cfg);
    storage::Database db;
    fresh.Load(&db, 1);
    db.partitioner().n = kExecWorkers;
    hal::SimPlatform sim(kExecWorkers, SimConfigFromEnv());
    const RunResult r = eng->Run(&sim, &db, plain);
    return Outcome{r.total.committed, fresh.SumCounters(db),
                   TableDigest(db)};
  };

  std::vector<std::pair<std::string, Outcome>> outcomes;
  {
    engine::TwoPlEngine eng(Options(kExecWorkers),
                            engine::DeadlockPolicyKind::kWaitDie);
    outcomes.emplace_back(eng.name(), run_plain(&eng));
  }
  {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    workload::KvWorkload fresh(cfg);
    storage::Database db;
    fresh.Load(&db, 1);
    db.partitioner().n = kOrthrusCc;
    hal::SimPlatform sim(kOrthrusCc + kExecWorkers, SimConfigFromEnv());
    const RunResult r = eng.Run(&sim, &db, orthrus_aligned);
    outcomes.emplace_back(
        eng.name(),
        Outcome{r.total.committed, fresh.SumCounters(db), TableDigest(db)});
  }

  const std::uint64_t want_committed = kExecWorkers * kTxnsPerWorker;
  const Outcome& first = outcomes.front().second;
  // The mix only means anything if both kinds actually committed: pure
  // RMW would sum to 10 * committed, pure reads to 0.
  ASSERT_GT(first.counter_sum, 0u);
  ASSERT_LT(first.counter_sum, want_committed * 10);
  for (const auto& [name, out] : outcomes) {
    EXPECT_EQ(out.committed, want_committed) << name;
    EXPECT_EQ(out.counter_sum, first.counter_sum) << name;
    EXPECT_EQ(out.digest, first.digest)
        << name << " diverged from " << outcomes.front().first;
  }
}

// ----------------------------------------------------------------- TPC-C

// TPC-C equivalence uses the canonical table digest: committed NewOrder /
// Payment effects are commutative on the digested columns (sums, counters,
// and stock subtractions far above the restock threshold), so engines that
// commit the same transaction multiset must agree even though each
// interleaves ring appends differently. Delivery is excluded (its
// customer credit targets depend on which NewOrder drew which order id).
struct TpccOutcome {
  std::uint64_t committed = 0;
  std::uint64_t digest = 0;
  std::uint64_t ring_digest = 0;  // interleaving-dependent; same-engine only
  std::uint64_t canonical_ring_digest = 0;  // order-id-independent
  std::uint64_t tally_total = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t orders_delivered = 0;
  std::uint64_t delivered_cents = 0;
};

// Digest over the order-ring contents the canonical digest excludes:
// which order record landed in which slot depends on the commit
// interleaving, so this is only comparable between runs of the *same*
// engine (the determinism test), never across engines.
std::uint64_t RingDigest(const workload::tpcc::TpccAux& aux) {
  Fnv1a fnv;
  for (const auto& ring : aux.orders) {
    for (const workload::tpcc::OrderRec& o : ring) {
      fnv.Mix(o.o_id);
      fnv.Mix(o.c_id);
      fnv.Mix(o.ol_cnt);
      fnv.Mix(o.total_cents);
    }
  }
  for (const auto& ring : aux.order_lines) {
    for (const workload::tpcc::OrderLineRec& ol : ring) {
      fnv.Mix(ol.i_id);
      fnv.Mix(ol.supply_w);
      fnv.Mix(ol.quantity);
      fnv.Mix(ol.amount_cents);
    }
  }
  return fnv.digest();
}

workload::tpcc::TpccScale EquivTpccScale() {
  workload::tpcc::TpccScale s;
  s.warehouses = 4;
  s.customers_per_district = 60;
  s.items = 200;
  s.order_ring_capacity = 1024;
  return s;  // default mix: NewOrder/Payment 50/50 (the paper's subset)
}

TpccOutcome RunTpccAt(engine::Engine* eng, int cores, int partitions,
                      int source_shift,
                      const workload::tpcc::TpccScale& scale) {
  workload::tpcc::TpccWorkload wl(scale);
  storage::Database db;
  wl.Load(&db, 1);
  db.partitioner().n = partitions;  // mode stays kWarehouseHigh32
  ShiftedWorkload shifted(&wl, source_shift);
  hal::SimPlatform sim(cores, SimConfigFromEnv());
  const RunResult r = eng->Run(&sim, &db, shifted);
  const auto tally = wl.aux()->tallies.Sum();
  TpccOutcome out;
  out.committed = r.total.committed;
  out.digest = wl.CanonicalDigest(db);
  out.ring_digest = RingDigest(*wl.aux());
  out.canonical_ring_digest = wl.CanonicalRingDigest(db);
  out.tally_total = tally.neworders + tally.payments + tally.order_statuses +
                    tally.deliveries + tally.stock_levels;
  out.deliveries = tally.deliveries;
  out.orders_delivered = tally.orders_delivered;
  out.delivered_cents = tally.delivered_cents;
  return out;
}

TpccOutcome RunTpcc(engine::Engine* eng, int cores, int partitions,
                    int source_shift) {
  return RunTpccAt(eng, cores, partitions, source_shift, EquivTpccScale());
}

TEST(EngineEquivalence, AllEnginesCommitTheSameTpccTransactionSet) {
  std::vector<std::pair<std::string, TpccOutcome>> outcomes;

  {
    engine::TwoPlEngine eng(Options(kExecWorkers),
                            engine::DeadlockPolicyKind::kWaitDie);
    outcomes.emplace_back(eng.name(),
                          RunTpcc(&eng, kExecWorkers, kExecWorkers, 0));
  }
  {
    engine::DeadlockFreeEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(eng.name(),
                          RunTpcc(&eng, kExecWorkers, kExecWorkers, 0));
  }
  {
    engine::PartitionedEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(eng.name(),
                          RunTpcc(&eng, kExecWorkers, kExecWorkers, 0));
  }
  {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    outcomes.emplace_back(eng.name(),
                          RunTpcc(&eng, kOrthrusCc + kExecWorkers, kOrthrusCc,
                                  kOrthrusCc));
  }

  const std::uint64_t want_committed = kExecWorkers * kTxnsPerWorker;
  for (const auto& [name, out] : outcomes) {
    EXPECT_EQ(out.committed, want_committed) << name;
    EXPECT_EQ(out.tally_total, want_committed) << name;
    EXPECT_EQ(out.digest, outcomes.front().second.digest)
        << name << " diverged from " << outcomes.front().first;
  }
}

// Full five-type mix with seeded undelivered orders: the Delivery and
// StockLevel extensions join the cross-engine equivalence once (a) the
// loader seeds more undelivered orders per district than any run can
// deliver — so the delivered order contents, and with them every customer
// credit, are load-deterministic rather than a race against NewOrder — and
// (b) the order rings are compared through the order-id-independent
// canonical digest (which o_id a NewOrder drew is interleaving-dependent;
// the multiset of order contents per district is not).
TEST(EngineEquivalence, FullMixSeededDeliveriesMatchAcrossEngines) {
  workload::tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.order_ring_capacity = 1024;
  // Committed deliveries across the whole run are capped by the commit
  // budget (75), and each consumes at most one order per district — far
  // below the seeded backlog, so no Delivery ever reaches a runtime order.
  scale.seeded_orders = 100;
  scale.mix = workload::tpcc::FullTpccMix();

  std::vector<std::pair<std::string, TpccOutcome>> outcomes;
  {
    engine::TwoPlEngine eng(Options(kExecWorkers),
                            engine::DeadlockPolicyKind::kWaitDie);
    outcomes.emplace_back(
        eng.name(), RunTpccAt(&eng, kExecWorkers, kExecWorkers, 0, scale));
  }
  {
    engine::DeadlockFreeEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(
        eng.name(), RunTpccAt(&eng, kExecWorkers, kExecWorkers, 0, scale));
  }
  {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    outcomes.emplace_back(eng.name(),
                          RunTpccAt(&eng, kOrthrusCc + kExecWorkers,
                                    kOrthrusCc, kOrthrusCc, scale));
  }

  const std::uint64_t want_committed = kExecWorkers * kTxnsPerWorker;
  const TpccOutcome& first = outcomes.front().second;
  for (const auto& [name, out] : outcomes) {
    EXPECT_EQ(out.committed, want_committed) << name;
    EXPECT_EQ(out.tally_total, want_committed) << name;
    // Lock-managed tables, customer balances included: identical because
    // the delivered orders are the load-deterministic seeded prefix.
    EXPECT_EQ(out.digest, first.digest)
        << name << " diverged from " << outcomes.front().first;
    // Order rings, compared order-id-independently.
    EXPECT_EQ(out.canonical_ring_digest, first.canonical_ring_digest)
        << name << " ring contents diverged from " << outcomes.front().first;
    EXPECT_EQ(out.deliveries, first.deliveries) << name;
    EXPECT_EQ(out.orders_delivered, first.orders_delivered) << name;
    EXPECT_EQ(out.delivered_cents, first.delivered_cents) << name;
  }
}

// Backlog exhaustion: a Delivery-heavy mix against a tiny seeded backlog.
// Every district's three seeded orders are delivered early in the run and
// all later Deliveries find (and must keep finding) nothing to deliver —
// the cursor is capped at the seeded frontier, so no Delivery ever
// consumes a runtime order even though NewOrders keep arriving. The
// delivered order multiset is therefore still load-deterministic, and the
// runs compare on full *contents* across engines: lock-managed tables
// (customer credits included), order rings through the canonical digest,
// and the delivery tallies.
TEST(EngineEquivalence, ExhaustedDeliveryBacklogMatchesAcrossEngines) {
  workload::tpcc::TpccScale scale;
  scale.warehouses = 2;
  scale.customers_per_district = 60;
  scale.items = 200;
  scale.order_ring_capacity = 1024;
  // ~30 committed Deliveries land on 2 warehouses — far beyond 3 seeded
  // orders per district, so the backlog exhausts within the run.
  scale.seeded_orders = 3;
  scale.mix = workload::tpcc::TpccMix{30, 30, 0, 40, 0};

  std::vector<std::pair<std::string, TpccOutcome>> outcomes;
  {
    engine::TwoPlEngine eng(Options(kExecWorkers),
                            engine::DeadlockPolicyKind::kWaitDie);
    outcomes.emplace_back(
        eng.name(), RunTpccAt(&eng, kExecWorkers, kExecWorkers, 0, scale));
  }
  {
    engine::DeadlockFreeEngine eng(Options(kExecWorkers));
    outcomes.emplace_back(
        eng.name(), RunTpccAt(&eng, kExecWorkers, kExecWorkers, 0, scale));
  }
  {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    outcomes.emplace_back(eng.name(),
                          RunTpccAt(&eng, kOrthrusCc + kExecWorkers,
                                    kOrthrusCc, kOrthrusCc, scale));
  }

  const std::uint64_t want_committed = kExecWorkers * kTxnsPerWorker;
  const TpccOutcome& first = outcomes.front().second;
  // The scenario only means anything if the backlog actually ran out:
  // every seeded order of both warehouses delivered, and more Deliveries
  // committed than could ever have found a full backlog.
  ASSERT_EQ(first.orders_delivered,
            static_cast<std::uint64_t>(2 * 10 * scale.seeded_orders));
  ASSERT_GT(first.deliveries, first.orders_delivered / 10);
  for (const auto& [name, out] : outcomes) {
    EXPECT_EQ(out.committed, want_committed) << name;
    EXPECT_EQ(out.tally_total, want_committed) << name;
    EXPECT_EQ(out.digest, first.digest)
        << name << " diverged from " << outcomes.front().first;
    EXPECT_EQ(out.canonical_ring_digest, first.canonical_ring_digest)
        << name << " ring contents diverged from " << outcomes.front().first;
    EXPECT_EQ(out.deliveries, first.deliveries) << name;
    EXPECT_EQ(out.orders_delivered, first.orders_delivered) << name;
    EXPECT_EQ(out.delivered_cents, first.delivered_cents) << name;
  }
}

// Same TPC-C run twice on the same architecture must be bit-identical,
// including the rings the canonical digest excludes for cross-engine
// comparison (within one engine the interleaving is deterministic too, so
// ring placement must also reproduce exactly).
TEST(EngineEquivalence, TpccRunsAreDeterministic) {
  const auto run = [] {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    return RunTpcc(&eng, kOrthrusCc + kExecWorkers, kOrthrusCc, kOrthrusCc);
  };
  const TpccOutcome a = run();
  const TpccOutcome b = run();
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ring_digest, b.ring_digest);
}

// The same engine run twice must be bit-identical: the simulator is
// deterministic, so any divergence is nondeterminism leaking into an
// engine (e.g. iteration over pointer-keyed containers).
TEST(EngineEquivalence, OrthrusRunsAreDeterministic) {
  workload::KvWorkload kv(workload::MakeYcsbConfig(Spec()));
  ShiftedWorkload aligned(&kv, kOrthrusCc);
  const auto run = [&aligned] {
    engine::OrthrusOptions oo;
    oo.num_cc = kOrthrusCc;
    oo.max_inflight = 1;
    engine::OrthrusEngine eng(Options(kOrthrusCc + kExecWorkers), oo);
    return RunOne(&eng, &aligned, kOrthrusCc + kExecWorkers, kOrthrusCc);
  };
  const Outcome a = run();
  const Outcome b = run();
  EXPECT_GT(a.committed, 0u);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.clock, b.clock);
}

}  // namespace
}  // namespace orthrus
