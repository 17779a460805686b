// Unit tests for the shared transaction-runtime layer: TxnDriver's
// admission gating (deadline + commit cap), restart/backoff accounting,
// OLLP mismatch replanning, strategy-outcome plumbing, and WorkerPool's
// clock/stat aggregation and per-worker RNG streams. Uses scripted fake
// strategies on the deterministic simulator, so every counter is exact.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "hal/sim_platform.h"
#include "lock/lock_table.h"
#include "runtime/locking_strategy.h"
#include "runtime/txn_driver.h"
#include "runtime/worker_pool.h"
#include "sim_env.h"
#include "workload/workload.h"

namespace orthrus::runtime {
namespace {

// Minimal transaction type: static single-access set (table 0, key 1; see
// OneRowDb), planned in `plan_cycles` of modeled work; Run always succeeds
// (the fake strategies below never call it).
class NoopLogic final : public txn::TxnLogic {
 public:
  explicit NoopLogic(hal::Cycles plan_cycles = 0)
      : plan_cycles_(plan_cycles) {}
  void BuildAccessSet(txn::Txn* t, storage::Database*) override {
    hal::ConsumeCycles(plan_cycles_);
    txn::Access a;
    a.table = 0;
    a.key = 1;
    t->accesses.push_back(a);
  }
  bool Run(txn::Txn*, const txn::ExecContext&) override { return true; }

 private:
  hal::Cycles plan_cycles_;
};

// Pulls each transaction in `next_cycles` of modeled work.
class NoopSource final : public workload::TxnSource {
 public:
  explicit NoopSource(txn::TxnLogic* logic, hal::Cycles next_cycles = 0)
      : logic_(logic), next_cycles_(next_cycles) {}
  void Next(txn::Txn* t) override {
    hal::ConsumeCycles(next_cycles_);
    t->ResetForReuse();
    t->logic = logic_;
    issued_++;
  }
  std::uint64_t issued() const { return issued_; }

 private:
  txn::TxnLogic* logic_;
  hal::Cycles next_cycles_;
  std::uint64_t issued_ = 0;
};

// A database holding the one row NoopLogic accesses, which the driver
// resolves.
void OneRowDb(storage::Database* db) {
  db->CreateTable(0, "one_row", 1, 8)->Insert(1);
}

// Scripted strategy: for each transaction, emits `aborts` kAbort outcomes
// and then `mismatches` kMismatch outcomes before committing, charging
// `cycles_per_attempt` of modeled work per attempt. Records the restart
// counts, timestamps and resolved rows it observes (clearing the row after
// each attempt, so a later attempt sees it set only if the driver resolved
// again), and ends each attempt with one Mark, as the real strategies end
// theirs with the release phase's.
class ScriptedStrategy final : public ExecutionStrategy {
 public:
  ScriptedStrategy(int aborts, int mismatches, hal::Cycles cycles_per_attempt)
      : aborts_(aborts),
        mismatches_(mismatches),
        cycles_per_attempt_(cycles_per_attempt) {}

  TxnOutcome TryExecute(txn::Txn* t, SpanClock* clock) override {
    hal::ConsumeCycles(cycles_per_attempt_);
    attempts_++;
    observed_restarts_.push_back(t->restarts);
    observed_resolved_.push_back(t->accesses[0].row != nullptr);
    t->accesses[0].row = nullptr;
    clock->Mark(TimeCategory::kExecution);
    if (t->restarts < static_cast<std::uint32_t>(aborts_)) {
      return TxnOutcome::kAbort;
    }
    if (t->restarts <
        static_cast<std::uint32_t>(aborts_) +
            static_cast<std::uint32_t>(mismatches_)) {
      return TxnOutcome::kMismatch;
    }
    observed_timestamps_.push_back(t->timestamp);
    return TxnOutcome::kCommitted;
  }

  std::uint64_t attempts() const { return attempts_; }
  const std::vector<std::uint32_t>& observed_restarts() const {
    return observed_restarts_;
  }
  const std::vector<bool>& observed_resolved() const {
    return observed_resolved_;
  }
  const std::vector<std::uint64_t>& observed_timestamps() const {
    return observed_timestamps_;
  }

 private:
  int aborts_;
  int mismatches_;
  hal::Cycles cycles_per_attempt_;
  std::uint64_t attempts_ = 0;
  std::vector<std::uint32_t> observed_restarts_;
  std::vector<bool> observed_resolved_;
  std::vector<std::uint64_t> observed_timestamps_;
};

struct DriverRun {
  WorkerStats stats;
  std::uint64_t issued = 0;
  std::uint64_t attempts = 0;
  std::uint64_t plans = 0;
  std::uint64_t replans = 0;
  std::vector<std::uint32_t> observed_restarts;
  std::vector<bool> observed_resolved;
  std::vector<std::uint64_t> observed_timestamps;
  RunResult result;
};

DriverRun RunDriver(const DriverOptions& options, double duration_seconds,
                    int aborts, int mismatches,
                    hal::Cycles cycles_per_attempt) {
  NoopLogic logic;
  NoopSource source(&logic);
  ScriptedStrategy strategy(aborts, mismatches, cycles_per_attempt);
  storage::Database db;
  OneRowDb(&db);
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerPool pool(&sim, 1, duration_seconds);
  DriverRun out;
  pool.Spawn(0, [&](WorkerContext& ctx) {
    TxnDriver driver(options, &db, &source, &strategy, &ctx);
    driver.Run();
    out.plans = driver.admission().planner()->plans();
    out.replans = driver.admission().planner()->replans();
  });
  out.result = pool.Run();
  out.stats = pool.worker(0).stats;
  out.issued = source.issued();
  out.attempts = strategy.attempts();
  out.observed_restarts = strategy.observed_restarts();
  out.observed_resolved = strategy.observed_resolved();
  out.observed_timestamps = strategy.observed_timestamps();
  return out;
}

// The simulator's nominal clock rate, for converting cycle budgets into
// duration_seconds without hardcoding the platform constant.
double SimCps() {
  hal::SimPlatform sim(1, SimConfigFromEnv());
  return sim.CyclesPerSecond();
}

// Virtual-time budget far beyond any commit cap: the cap, not the clock,
// ends capped runs.
constexpr double kAmpleDuration = 1000.0;

DriverOptions CappedOptions(std::uint64_t cap) {
  DriverOptions o;
  o.max_txns_per_worker = cap;
  return o;
}

// ----------------------------------------------------------- commit caps

TEST(TxnDriver, CommitCapEndsTheRunExactly) {
  const DriverRun r = RunDriver(CappedOptions(7), kAmpleDuration, 0, 0, 100);
  EXPECT_EQ(r.stats.committed, 7u);
  EXPECT_EQ(r.issued, 7u);      // nothing admitted past the cap
  EXPECT_EQ(r.attempts, 7u);    // one attempt per commit
  EXPECT_EQ(r.plans, 7u);       // one OLLP plan per admission
  EXPECT_EQ(r.replans, 0u);
  EXPECT_EQ(r.stats.aborted, 0u);
  EXPECT_EQ(r.stats.backoffs, 0u);
  EXPECT_EQ(r.result.total.committed, 7u);
  EXPECT_EQ(r.stats.txn_latency.count(), 7u);
}

// -------------------------------------------------------- deadline gating

TEST(TxnDriver, DeadlineStopsAdmission) {
  DriverOptions o;
  // 10k cycles of budget at 1k cycles per transaction: the deadline, not a
  // cap, ends the run after ~10 transactions.
  o.max_txns_per_worker = 0;
  const DriverRun r = RunDriver(o, 10000.0 / SimCps(), 0, 0, 1000);
  EXPECT_GT(r.stats.committed, 5u);
  EXPECT_LT(r.stats.committed, 15u);
  EXPECT_EQ(r.issued, r.stats.committed);  // in-flight work always drains
}

TEST(TxnDriver, InFlightTransactionFinishesPastTheDeadline) {
  DriverOptions o;
  // One attempt blows the whole budget.
  const DriverRun r = RunDriver(o, 1000.0 / SimCps(), 0, 0, 50000);
  EXPECT_EQ(r.stats.committed, 1u);  // admitted before expiry, ran to commit
  EXPECT_EQ(r.issued, 1u);
}

// ---------------------------------------------- restart/backoff counting

TEST(TxnDriver, AbortsTriggerCountedBackoffsAndRetries) {
  const DriverRun r = RunDriver(CappedOptions(5), kAmpleDuration,
                                /*aborts=*/2, /*mismatches=*/0, 100);
  EXPECT_EQ(r.stats.committed, 5u);
  EXPECT_EQ(r.stats.aborted, 10u);   // 2 per transaction
  EXPECT_EQ(r.stats.backoffs, 10u);  // every abort backs off exactly once
  EXPECT_EQ(r.attempts, 15u);        // 3 attempts per transaction
  EXPECT_EQ(r.issued, 5u);           // retries reuse the admitted txn
  // The driver resets restarts at admission and increments per abort:
  // every transaction observes 0, 1, 2.
  ASSERT_EQ(r.observed_restarts.size(), 15u);
  for (std::size_t i = 0; i < r.observed_restarts.size(); ++i) {
    EXPECT_EQ(r.observed_restarts[i], i % 3);
  }
}

TEST(TxnDriver, BackoffDelayGrowsWithRestartsAndCaps) {
  // RestartBackoff's capped exponential, measured through the virtual
  // clock: 5 commits with 6 aborts each at zero strategy cost spend
  // (almost) exactly the backoff schedule.
  const DriverRun r = RunDriver(CappedOptions(5), kAmpleDuration,
                                /*aborts=*/6, /*mismatches=*/0, 0);
  EXPECT_EQ(r.stats.backoffs, 30u);
  // Schedule per txn: 100<<1, 100<<2, 100<<3, 100<<4, 100<<4, 100<<4 (the
  // shift caps at 4) plus jitter in [0,256) per backoff.
  const double elapsed_cycles = r.result.elapsed_seconds * SimCps();
  const double min_backoff = 5 * (200 + 400 + 800 + 1600 + 1600 + 1600);
  EXPECT_GE(elapsed_cycles, min_backoff);
  EXPECT_LT(elapsed_cycles, min_backoff + 30 * 256 + 2048);
}

// --------------------------------------------------- mismatch replanning

TEST(TxnDriver, MismatchesReplanWithoutBackoff) {
  const DriverRun r = RunDriver(CappedOptions(4), kAmpleDuration,
                                /*aborts=*/0, /*mismatches=*/3, 100);
  EXPECT_EQ(r.stats.committed, 4u);
  EXPECT_EQ(r.stats.ollp_aborts, 12u);  // 3 per transaction
  EXPECT_EQ(r.replans, 12u);
  EXPECT_EQ(r.plans, 4u);               // initial plans only
  EXPECT_EQ(r.stats.aborted, 0u);       // mismatch is not a deadlock abort
  EXPECT_EQ(r.stats.backoffs, 0u);      // and takes no backoff
  EXPECT_EQ(r.attempts, 16u);
}

TEST(TxnDriver, ExhaustedReplanBudgetDropsTheTransaction) {
  // A transaction that always mismatches must be dropped after the OLLP
  // retry budget, not spin forever; the run then ends at the deadline with
  // zero commits.
  DriverOptions o;
  const DriverRun r = RunDriver(o, 200000.0 / SimCps(), /*aborts=*/0,
                                /*mismatches=*/1 << 20, 1000);
  EXPECT_EQ(r.stats.committed, 0u);
  EXPECT_GT(r.issued, 0u);
  // Every admitted transaction burned its full budget: kMaxOllpRetries
  // replans plus the final one that returned false.
  EXPECT_EQ(r.stats.ollp_aborts, r.issued * (txn::kMaxOllpRetries + 1));
}

// A transaction's rows resolve once per plan: after admission and after
// each replan, never again after an abort, whose retry keeps the same
// access set.
TEST(TxnDriver, RowsResolveOncePerPlan) {
  const DriverRun r = RunDriver(CappedOptions(3), kAmpleDuration,
                                /*aborts=*/2, /*mismatches=*/1, 100);
  ASSERT_EQ(r.observed_resolved.size(), 12u);  // 4 attempts per transaction
  for (std::size_t i = 0; i < r.observed_resolved.size(); ++i) {
    // Attempts: admitted, after abort, after abort, after replan.
    const bool resolved = i % 4 == 0 || i % 4 == 3;
    EXPECT_EQ(r.observed_resolved[i], resolved) << "attempt " << i;
  }
}

// Every cycle of a driver run is charged once: the categories sum to the
// worker's run, backoffs and replans included.
TEST(TxnDriver, EveryCycleIsCharged) {
  const DriverRun r = RunDriver(CappedOptions(5), kAmpleDuration,
                                /*aborts=*/2, /*mismatches=*/1, 100);
  const WorkerStats& s = r.stats;
  EXPECT_NEAR(static_cast<double>(s.Get(TimeCategory::kExecution) +
                                  s.Get(TimeCategory::kLocking) +
                                  s.Get(TimeCategory::kWaiting)),
              r.result.elapsed_seconds * SimCps(), 1.0);
  // The backoffs are waiting: at least 100 << 1 and 100 << 2 per
  // transaction.
  EXPECT_GE(s.Get(TimeCategory::kWaiting), 5u * (200 + 400));
}

// -------------------------------------------------- admission stamping

TEST(TxnDriver, TimestampsAreAgeOrderedAndWorkerTagged) {
  const DriverRun r = RunDriver(CappedOptions(3), kAmpleDuration, 0, 0, 100);
  ASSERT_EQ(r.observed_timestamps.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // (counter << kWorkerIdBits) | worker_id, counter starting at 1,
    // worker 0.
    EXPECT_EQ(r.observed_timestamps[i], (i + 1) << kWorkerIdBits);
  }
}

// Regression: the tie-break field used to be 8 bits, so worker 256 aliased
// worker 0 — (1 << 8) | 256 == (1 << 8) | 0 — and two distinct workers'
// first transactions compared equal under wait-die (and ids past 256 bled
// into the age bits, inverting age order). With the 16-bit field every
// (age, worker) pair below kMaxWorkers is distinct and age strictly
// dominates the worker tag.
TEST(TxnAdmission, TimestampTieBreakSurvivesWorker256) {
  NoopLogic logic;
  NoopSource src_a(&logic), src_b(&logic);
  storage::Database db;
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerPool pool(&sim, 300, kAmpleDuration);
  DriverOptions opts;
  TxnAdmission a0(opts, &db, &src_a, &pool.worker(0));
  TxnAdmission a256(opts, &db, &src_b, &pool.worker(256));

  txn::Txn t0_first, t256_first, t0_second;
  SpanClock clock0(&pool.worker(0).stats, 0);
  SpanClock clock256(&pool.worker(256).stats, 0);
  a0.Admit(&t0_first, &clock0);
  a256.Admit(&t256_first, &clock256);
  a0.Admit(&t0_second, &clock0);

  // Same age, different workers: distinct, ordered by worker id.
  EXPECT_NE(t0_first.timestamp, t256_first.timestamp);
  EXPECT_LT(t0_first.timestamp, t256_first.timestamp);
  // Age dominates the tie-break: worker 256's first admission is strictly
  // older than worker 0's second, despite the bigger worker tag.
  EXPECT_LT(t256_first.timestamp, t0_second.timestamp);
}

// Admission reads no clock before planning: the caller's cursor holds the
// reading that starts it. Source pull and planning are the whole charged
// span, and the one post-plan reading is its end, the latency start stamp
// and the cursor's new reading.
struct AdmitProbe {
  hal::Cycles t0 = 0;
  hal::Cycles returned = 0;
  hal::Cycles start_cycles = 0;
  std::uint64_t charged = 0;
  hal::Cycles cursor = 0;
};

// `gap` cycles pass between the caller's reading and the Admit call.
AdmitProbe ProbeAdmit(hal::Cycles next_cycles, hal::Cycles plan_cycles,
                      hal::Cycles gap) {
  NoopLogic logic(plan_cycles);
  NoopSource source(&logic, next_cycles);
  storage::Database db;
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerPool pool(&sim, 1, kAmpleDuration);
  AdmitProbe p;
  pool.Spawn(0, [&](WorkerContext& ctx) {
    TxnAdmission admission(DriverOptions{}, &db, &source, &ctx);
    hal::ConsumeCycles(1234);  // a reading away from the clock's origin
    txn::Txn t;
    p.t0 = hal::Now();
    SpanClock clock(&ctx.stats, p.t0);
    hal::ConsumeCycles(gap);
    const std::uint64_t before = ctx.stats.Get(TimeCategory::kExecution);
    p.returned = admission.Admit(&t, &clock);
    p.start_cycles = t.start_cycles;
    p.charged = ctx.stats.Get(TimeCategory::kExecution) - before;
    p.cursor = clock.last();
  });
  pool.Run();
  return p;
}

TEST(TxnAdmission, AdmitStampsAndReturnsTheOnePostPlanReading) {
  constexpr hal::Cycles kNext = 700;
  constexpr hal::Cycles kPlan = 50;
  // The charged span starts at the cursor's reading, not at the call.
  for (const hal::Cycles gap : {hal::Cycles{0}, hal::Cycles{9}}) {
    const AdmitProbe p = ProbeAdmit(kNext, kPlan, gap);
    EXPECT_EQ(p.start_cycles, p.t0 + gap + kNext + kPlan) << gap;
    EXPECT_EQ(p.returned, p.start_cycles) << gap;
    EXPECT_EQ(p.cursor, p.start_cycles) << gap;
    EXPECT_EQ(p.charged, gap + kNext + kPlan) << gap;
  }
}

TEST(TxnAdmission, OpenComparesTheCallersReadingWithTheDeadline) {
  NoopLogic logic;
  NoopSource source(&logic);
  storage::Database db;
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerPool pool(&sim, 1, 1000.0 / SimCps());
  pool.Spawn(0, [&](WorkerContext& ctx) {
    TxnAdmission admission(DriverOptions{}, &db, &source, &ctx);
    const hal::Cycles deadline = ctx.clock.deadline;
    ASSERT_GT(deadline, ctx.clock.start);
    EXPECT_TRUE(admission.Open(deadline - 1));
    EXPECT_FALSE(admission.Open(deadline));
    // The gate reads no clock: the live one is still far from the deadline.
    EXPECT_LT(hal::Now(), deadline);
  });
  pool.Run();
}

// A cursor charges each span between its readings once, to the category
// its closing Mark names; Charge books known cycles of the open span to
// their own category without a reading.
TEST(SpanClock, EachMarkChargesTheSpanSinceTheLastReading) {
  hal::SimPlatform sim(1, SimConfigFromEnv());
  WorkerPool pool(&sim, 1, kAmpleDuration);
  pool.Spawn(0, [&](WorkerContext& ctx) {
    SpanClock clock(&ctx.stats, ctx.clock.start);
    hal::ConsumeCycles(100);
    const hal::Cycles a = clock.Mark(TimeCategory::kExecution);
    EXPECT_EQ(a, ctx.clock.start + 100);
    EXPECT_EQ(clock.last(), a);
    hal::ConsumeCycles(30);
    clock.Mark(TimeCategory::kLocking);
    hal::ConsumeCycles(5);
    clock.Charge(TimeCategory::kExecution, 5);
    EXPECT_EQ(clock.last(), a + 35);
    hal::ConsumeCycles(7);
    const hal::Cycles end = clock.Mark(TimeCategory::kLocking);
    EXPECT_EQ(ctx.stats.Get(TimeCategory::kExecution), 105u);
    EXPECT_EQ(ctx.stats.Get(TimeCategory::kLocking), 37u);
    EXPECT_EQ(ctx.stats.Get(TimeCategory::kWaiting), 0u);
    EXPECT_EQ(end, ctx.clock.start + 142);
  });
  pool.Run();
}

// Takes one lock in order, then releases it: the smallest LockingStrategy.
class OneLockStrategy final : public LockingStrategy {
 public:
  OneLockStrategy(lock::LockTable* table, lock::WorkerLockCtx* ctx,
                  WorkerStats* stats)
      : LockingStrategy(table, ctx, /*policy=*/nullptr, stats) {}

  TxnOutcome TryExecute(txn::Txn* t, SpanClock* clock) override {
    AcquireOrdered(t->accesses[0], clock);
    clock->Mark(TimeCategory::kLocking);
    ReleaseAllLocks(clock);
    return TxnOutcome::kCommitted;
  }
};

// A lock wait is timed where the strategy waits: the lock work before it
// is kLocking and the wait kWaiting, with one reading on each side. The
// lock table reads no clock, and every cycle of the attempt is charged.
TEST(LockingStrategy, ALockWaitIsChargedAsWaiting) {
  constexpr hal::Cycles kHold = 20000;
  constexpr hal::Cycles kArrive = 1000;
  lock::LockTable::Config config;
  config.num_buckets = 64;
  config.max_workers = 2;
  lock::LockTable table(config);
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerPool pool(&sim, 2, kAmpleDuration);
  lock::WorkerLockCtx* holder = table.RegisterWorker(0, &pool.worker(0).stats);
  OneLockStrategy waiter(&table,
                         table.RegisterWorker(1, &pool.worker(1).stats),
                         &pool.worker(1).stats);
  pool.Spawn(0, [&](WorkerContext&) {
    ASSERT_EQ(table.Acquire(holder, 0, 1, txn::LockMode::kExclusive, nullptr),
              lock::LockTable::AcquireResult::kGranted);
    hal::ConsumeCycles(kHold);
    table.ReleaseAll(holder);
  });
  hal::Cycles span = 0;
  pool.Spawn(1, [&](WorkerContext& ctx) {
    hal::ConsumeCycles(kArrive);  // core 0 holds the lock by now
    txn::Txn t;
    txn::Access a;
    a.table = 0;
    a.key = 1;
    a.mode = txn::LockMode::kExclusive;
    t.accesses.push_back(a);
    SpanClock clock(&ctx.stats, ctx.clock.start);
    EXPECT_EQ(waiter.TryExecute(&t, &clock), TxnOutcome::kCommitted);
    span = clock.last() - ctx.clock.start;
  });
  pool.Run();
  const WorkerStats& s = pool.worker(1).stats;
  EXPECT_EQ(s.lock_waits, 1u);
  EXPECT_GT(s.Get(TimeCategory::kWaiting), kHold - kArrive);
  EXPECT_GE(s.Get(TimeCategory::kLocking), kArrive);
  EXPECT_EQ(s.Get(TimeCategory::kExecution), 0u);
  EXPECT_EQ(s.Get(TimeCategory::kLocking) + s.Get(TimeCategory::kWaiting),
            span);
  // WorkerClock's two, two around the wait, the acquire and release ends.
  EXPECT_EQ(sim.stats().clock_reads[1], 6u);
  // The holder took no reading beyond its WorkerClock's: the lock table
  // reads none.
  EXPECT_EQ(sim.stats().clock_reads[0], 2u);
}

TEST(WorkerPool, RejectsWorkerIdsBeyondTheTieBreakField) {
  hal::SimPlatform sim(1, SimConfigFromEnv());
  EXPECT_DEATH(WorkerPool(&sim, kMaxWorkers + 1, 1.0), "CHECK");
  // The full field is usable.
  WorkerPool ok(&sim, kMaxWorkers, 1.0);
  EXPECT_EQ(ok.num_workers(), kMaxWorkers);
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPool, AggregatesStatsAndSpansClocks) {
  hal::SimPlatform sim(3, SimConfigFromEnv());
  WorkerPool pool(&sim, 3, /*duration_seconds=*/1.0);
  for (int w = 0; w < 3; ++w) {
    pool.Spawn(w, [w](WorkerContext& ctx) {
      EXPECT_EQ(ctx.worker_id, w);
      hal::ConsumeCycles(1000 * (w + 1));
      ctx.stats.committed = static_cast<std::uint64_t>(w + 1);
      ctx.stats.Add(TimeCategory::kExecution, 10);
    });
  }
  const RunResult r = pool.Run();
  EXPECT_EQ(r.total.committed, 6u);
  ASSERT_EQ(r.per_worker.size(), 3u);
  EXPECT_EQ(r.per_worker[2].committed, 3u);
  // Elapsed spans the slowest worker's 3000 cycles of work.
  EXPECT_GE(r.elapsed_seconds, 3000.0 / SimCps());
  // The result carries the platform's rate for converting its cycles.
  EXPECT_EQ(r.cycles_per_second, sim.CyclesPerSecond());
}

TEST(WorkerPool, SplitRunAllowsMidpointAssertions) {
  hal::SimPlatform sim(2, SimConfigFromEnv());
  WorkerPool pool(&sim, 2, 1.0);
  bool ran[2] = {false, false};
  for (int w = 0; w < 2; ++w) {
    pool.Spawn(w, [&ran, w](WorkerContext& ctx) {
      ran[w] = true;
      ctx.stats.committed = 1;
    });
  }
  pool.RunWorkers();
  EXPECT_TRUE(ran[0] && ran[1]);  // joined: safe to assert engine state here
  const RunResult r = pool.Finalize();
  EXPECT_EQ(r.total.committed, 2u);
}

}  // namespace
}  // namespace orthrus::runtime
