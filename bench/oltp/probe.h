// Workload decorator that measures an engine from outside it.
//
// ProbedWorkload wraps a workload::Workload. Every source it hands an
// engine wraps the real source, and every transaction that source emits
// has its TxnLogic swapped for a forwarding wrapper. The benchmark thereby
// sees each call an engine makes into the workload and transaction layers
// (TxnSource::Next, TxnLogic::BuildAccessSet, TxnLogic::Run) without any
// change to the engines:
//
//  * always: counts of admitted, committed and re-planned transactions,
//    read-only vs read-write commits, and commit latency from the engine's
//    admission stamp (Txn::start_cycles) to the successful return of Run.
//    Under strict 2PL and under ORTHRUS that return is the commit point:
//    every lock is still held there, and lock release is post-commit work.
//  * traced: the time spent in each call, each worker's active window, and
//    full spans for one transaction in kSampleEvery.
//
// Aggregates live in per-thread slots indexed by hal::CoreId(), sized at
// setup; a worker writes only its own slot while Engine::Run executes and
// the main thread reads them after Run has joined the workers.
#ifndef ORTHRUS_BENCH_OLTP_PROBE_H_
#define ORTHRUS_BENCH_OLTP_PROBE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/oltp/latency_recorder.h"
#include "hal/hal.h"
#include "txn/txn.h"
#include "workload/workload.h"

namespace orthrus::bench::oltp {

enum class SpanKind : std::uint8_t { kTxn, kNext, kPlan, kExec };

// One sampled span. A transaction is identified by (worker, seq); `lane`
// is the Txn object it occupied on that worker, so the transactions of one
// lane never overlap in time.
struct Span {
  SpanKind kind;
  int worker;
  int lane;
  std::uint64_t seq;
  hal::Cycles start;
  hal::Cycles end;
};

struct alignas(kCacheLineSize) ThreadStats {
  std::uint64_t nexts = 0;        // TxnSource::Next calls (admissions)
  std::uint64_t plans = 0;        // BuildAccessSet calls
  std::uint64_t commits = 0;      // Run returned true
  std::uint64_t rmw_commits = 0;  // ... for a transaction with a write
  std::uint64_t replans = 0;      // Run returned false (stale OLLP plan)
  // Traced only: time inside each call, and the window from the first
  // Next to the last Run return on this thread.
  hal::Cycles next_cycles = 0;
  hal::Cycles plan_cycles = 0;
  hal::Cycles exec_cycles = 0;         // successful Runs
  hal::Cycles replan_exec_cycles = 0;  // Runs that returned false
  hal::Cycles first = ~0ull;
  hal::Cycles last = 0;
  LatencyRecorder latency;  // commit latency in platform cycles
  std::vector<Span> spans;  // capacity reserved at setup; never grows
  std::uint64_t spans_dropped = 0;

  bool active() const { return nexts != 0; }
};

class Probe {
 public:
  static constexpr std::uint64_t kSampleEvery = 256;

  // `span_capacity` spans are reserved per thread when tracing.
  Probe(int num_cores, bool trace, std::size_t span_capacity)
      : trace_(trace), threads_(static_cast<std::size_t>(num_cores)) {
    if (trace_) {
      for (ThreadStats& t : threads_) t.spans.reserve(span_capacity);
    }
  }

  bool trace() const { return trace_; }

  ThreadStats& Local() {
    const int core = hal::CoreId();
    ORTHRUS_CHECK_MSG(core >= 0 && core < static_cast<int>(threads_.size()),
                      "probe called off a worker core");
    return threads_[static_cast<std::size_t>(core)];
  }

  const std::vector<ThreadStats>& threads() const { return threads_; }

 private:
  bool trace_;
  std::vector<ThreadStats> threads_;
};

class ProbedSource;

// Forwards every TxnLogic call to the real logic through its source.
class ProbedLogic final : public txn::TxnLogic {
 public:
  ProbedLogic(txn::TxnLogic* inner, ProbedSource* source)
      : inner_(inner), source_(source) {}

  txn::TxnLogic* inner() const { return inner_; }

  void BuildAccessSet(txn::Txn* t, storage::Database* db) override;
  bool NeedsReconnaissance() const override {
    return inner_->NeedsReconnaissance();
  }
  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override;
  hal::Cycles OpCost(const txn::Txn* t, std::size_t i,
                     storage::Database* db) const override {
    return inner_->OpCost(t, i, db);
  }

 private:
  txn::TxnLogic* inner_;
  ProbedSource* source_;
};

class ProbedSource final : public workload::TxnSource {
 public:
  ProbedSource(std::unique_ptr<workload::TxnSource> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Next(txn::Txn* t) override {
    const bool trace = probe_->trace();
    const hal::Cycles t0 = trace ? hal::Now() : 0;
    inner_->Next(t);
    ThreadStats& s = probe_->Local();
    s.nexts++;
    t->logic = Wrap(t->logic);
    if (!trace) return;
    const hal::Cycles t1 = hal::Now();
    s.next_cycles += t1 - t0;
    s.first = std::min(s.first, t0);
    Lane& l = LaneOf(t);
    l.seq = seq_++;
    l.start = t0;
    l.sampled = l.seq % Probe::kSampleEvery == 0;
    if (l.sampled) Emit(&s, SpanKind::kNext, l, t0, t1);
  }

  void Plan(txn::TxnLogic* inner, txn::Txn* t, storage::Database* db) {
    if (!probe_->trace()) {
      inner->BuildAccessSet(t, db);
      probe_->Local().plans++;
      return;
    }
    const hal::Cycles t0 = hal::Now();
    inner->BuildAccessSet(t, db);
    const hal::Cycles t1 = hal::Now();
    ThreadStats& s = probe_->Local();
    s.plans++;
    s.plan_cycles += t1 - t0;
    const Lane& l = LaneOf(t);
    if (l.sampled) Emit(&s, SpanKind::kPlan, l, t0, t1);
  }

  bool Exec(txn::TxnLogic* inner, txn::Txn* t, const txn::ExecContext& ctx) {
    const bool trace = probe_->trace();
    const hal::Cycles t0 = trace ? hal::Now() : 0;
    const bool ok = inner->Run(t, ctx);
    const hal::Cycles t1 = hal::Now();
    ThreadStats& s = probe_->Local();
    if (ok) {
      s.commits++;
      if (HasWrite(*t)) s.rmw_commits++;
      s.latency.Record(t1 - t->start_cycles);
    } else {
      s.replans++;
    }
    if (!trace) return ok;
    (ok ? s.exec_cycles : s.replan_exec_cycles) += t1 - t0;
    s.last = std::max(s.last, t1);
    const Lane& l = LaneOf(t);
    if (l.sampled) {
      Emit(&s, SpanKind::kExec, l, t0, t1);
      if (ok) Emit(&s, SpanKind::kTxn, l, l.start, t1);
    }
    return ok;
  }

 private:
  // Traced per-transaction state, keyed by the engine's Txn object. An
  // engine keeps at most its in-flight window of Txn objects per worker,
  // so the table stays a handful of entries.
  struct Lane {
    const txn::Txn* txn = nullptr;
    std::uint64_t seq = 0;
    hal::Cycles start = 0;
    bool sampled = false;
    int index = 0;
  };

  static bool HasWrite(const txn::Txn& t) {
    for (const txn::Access& a : t.accesses) {
      if (a.mode == txn::LockMode::kExclusive) return true;
    }
    return false;
  }

  Lane& LaneOf(const txn::Txn* t) {
    for (Lane& l : lanes_) {
      if (l.txn == t) return l;
    }
    Lane l;
    l.txn = t;
    l.index = static_cast<int>(lanes_.size());
    lanes_.push_back(l);
    return lanes_.back();
  }

  // One wrapper per distinct real logic (a workload has a few transaction
  // types), created the first time the source emits that type.
  txn::TxnLogic* Wrap(txn::TxnLogic* inner) {
    for (const std::unique_ptr<ProbedLogic>& w : wrappers_) {
      if (w->inner() == inner) return w.get();
    }
    wrappers_.push_back(std::make_unique<ProbedLogic>(inner, this));
    return wrappers_.back().get();
  }

  static void Emit(ThreadStats* s, SpanKind kind, const Lane& l,
                   hal::Cycles start, hal::Cycles end) {
    if (s->spans.size() == s->spans.capacity()) {
      s->spans_dropped++;
      return;
    }
    s->spans.push_back(
        Span{kind, hal::CoreId(), l.index, l.seq, start, end});
  }

  std::unique_ptr<workload::TxnSource> inner_;
  Probe* probe_;
  std::uint64_t seq_ = 0;
  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<ProbedLogic>> wrappers_;
};

inline void ProbedLogic::BuildAccessSet(txn::Txn* t, storage::Database* db) {
  source_->Plan(inner_, t, db);
}

inline bool ProbedLogic::Run(txn::Txn* t, const txn::ExecContext& ctx) {
  return source_->Exec(inner_, t, ctx);
}

// The decorator the engines run. Load is done by the benchmark on the real
// workload, so that its wall time is measured apart from the run.
class ProbedWorkload final : public workload::Workload {
 public:
  ProbedWorkload(workload::Workload* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  void Load(storage::Database* db, int num_table_partitions) override {
    inner_->Load(db, num_table_partitions);
  }
  std::unique_ptr<workload::TxnSource> MakeSource(
      int worker_id) const override {
    return std::make_unique<ProbedSource>(inner_->MakeSource(worker_id),
                                          probe_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  workload::Workload* inner_;
  Probe* probe_;
};

}  // namespace orthrus::bench::oltp

#endif  // ORTHRUS_BENCH_OLTP_PROBE_H_
