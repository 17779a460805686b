// Native OLTP benchmark: ORTHRUS against wait-die 2PL on four contention
// workloads, on real threads (hal::NativePlatform).
//
//   oltp_bench --seed N [--seconds S] [--workload NAME] [--out FILE]
//              [--trace FILE]
//
// For each workload the benchmark loads one database and runs both engines
// on it as a closed loop, S measured seconds each (default 8), in
// alternating segments of about a second; each engine's end-to-end numbers
// are medians over its segments, reported as measured and scaled to a
// nominal host (host_reference.h). It checks every result, prints one line
// per metric (`name workload value unit`), and with --out writes the
// metrics and checks as JSON. A run with --trace is a separate kind of
// invocation: each engine spends half its time untraced and half traced,
// the per-layer metrics replace the end-to-end ones, and the sampled spans
// go to FILE as Chrome trace-event JSON. The exit code is 1 if any
// correctness check failed. README.md defines every metric.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/oltp/host_reference.h"
#include "bench/oltp/latency_recorder.h"
#include "bench/oltp/probe.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/native_platform.h"
#include "txn/ollp.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus::bench::oltp {
namespace {

using Clock = std::chrono::steady_clock;

// Three worker threads in one process. On a 4-core host a fourth worker
// shares a core with the main thread and the OS: ORTHRUS kv_hot_rmw then
// spread 663k-798k txn/s across identical 5 s runs, against 555k-631k
// with three.
constexpr int kCores = 3;
constexpr int kOrthrusCc = 1;

// Throughput on a shared host drifts by tens of percent over seconds to
// minutes, and the first second after start-up ran up to 2x slower.
// Alternating the engines in short segments exposes both to the same
// conditions, medians over segments drop disturbed ones, and one untimed
// warm-up segment per engine absorbs the start-up. Each segment is a fresh
// Engine::Run, which also bounds engine state that grows with the keys a
// run touches: 2PL never frees lock heads, and an 8 s run on kv_uniform_8m
// slowed as its hash chains grew and came close to exhausting the pool.
constexpr double kSegmentSeconds = 1.0;
constexpr double kWarmupSeconds = 0.5;
// Workload::Load runs at least kMinLoads times per workload, and more while
// the loads so far took under kLoadBudgetSeconds (a 20 ms load is mostly
// noise); setup_s is the median.
constexpr int kMinLoads = 3;
constexpr int kMaxLoads = 25;
constexpr double kLoadBudgetSeconds = 1.0;

constexpr std::size_t kLookupKeys = 1'000'000;
constexpr std::size_t kSpanCapacity = 1 << 16;

double Since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ------------------------------------------------------------ workloads

std::unique_ptr<workload::Workload> MakeKv(std::uint64_t records,
                                           std::uint64_t hot, int pct_read,
                                           std::uint64_t seed) {
  workload::KvConfig c;
  c.num_records = records;
  c.row_bytes = 100;
  c.ops_per_txn = 10;
  c.hot_records = hot;
  c.pct_read_only = pct_read;
  c.seed = seed;
  return std::make_unique<workload::KvWorkload>(c);
}

std::unique_ptr<workload::Workload> MakeTpcc(std::uint64_t seed) {
  workload::tpcc::TpccScale s;
  s.warehouses = 4;
  s.customers_per_district = 150;
  s.items = 2000;
  s.order_ring_capacity = 16384;
  s.seed = seed;
  return std::make_unique<workload::tpcc::TpccWorkload>(s);
}

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<workload::Workload> (*make)(std::uint64_t seed);
};

// Why each workload is here is in README.md.
const WorkloadSpec kWorkloads[] = {
    {"kv_hot_rmw",
     [](std::uint64_t seed) { return MakeKv(200'000, 64, 0, seed); }},
    {"kv_hot_read90",
     [](std::uint64_t seed) { return MakeKv(200'000, 64, 90, seed); }},
    {"kv_uniform_8m",
     [](std::uint64_t seed) { return MakeKv(8'000'000, 0, 0, seed); }},
    {"tpcc_4wh", MakeTpcc},
};

enum class EngineKind { kOrthrus, kTwoPl };

const char* EngineName(EngineKind k) {
  return k == EngineKind::kOrthrus ? "orthrus" : "2pl";
}

std::unique_ptr<engine::Engine> MakeEngine(EngineKind kind, double seconds) {
  engine::EngineOptions eo;
  eo.num_cores = kCores;
  eo.duration_seconds = seconds;
  if (kind == EngineKind::kTwoPl) {
    return std::make_unique<engine::TwoPlEngine>(
        eo, engine::DeadlockPolicyKind::kWaitDie);
  }
  engine::OrthrusOptions oo;
  oo.num_cc = kOrthrusCc;
  return std::make_unique<engine::OrthrusEngine>(eo, oo);
}

// ------------------------------------------------------------- memory

// Bytes the allocator has handed out and not yet taken back, including
// blocks it maps directly. Unlike the resident set size this does not keep
// memory that freed allocations leave cached in per-thread arenas, which
// every segment's fresh worker threads would otherwise pile up.
std::uint64_t HeapInUse() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<std::uint64_t>(m.uordblks + m.hblkhd);
}

// Samples HeapInUse every 10 ms on a helper thread and reports each
// segment's peak above the level at construction (before Load).
class HeapSampler {
 public:
  HeapSampler() : base_(HeapInUse()), thread_([this] { Loop(); }) {}
  ~HeapSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  // Peak growth over the baseline since the previous call, in MiB.
  double TakePeakMiB() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t peak = std::max(peak_, HeapInUse());
    peak_ = 0;
    return static_cast<double>(peak > base_ ? peak - base_ : 0) /
           (1024.0 * 1024.0);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      peak_ = std::max(peak_, HeapInUse());
      cv_.wait_for(lock, std::chrono::milliseconds(10),
                   [this] { return stop_; });
    }
  }

  const std::uint64_t base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::uint64_t peak_ = 0;
  std::thread thread_;
};

// -------------------------------------------------------------- trace

// Chrome trace-event JSON: one process per traced segment, one track per
// (worker, lane) for sampled transactions, and one track for the main
// thread's storage.load and engine.run spans.
class TraceFile {
 public:
  explicit TraceFile(Clock::time_point origin) : origin_(origin) {}

  int BeginProcess(std::string label) {
    labels_.push_back(std::move(label));
    return static_cast<int>(labels_.size()) - 1;
  }

  void AddMain(int pid, const char* name, Clock::time_point start,
               Clock::time_point end) {
    events_.push_back(Event{name, pid, kMainTid, Us(start), Us(end),
                            /*worker=*/-1, /*seq=*/0});
  }

  // Worker spans are stamped in platform cycles since the platform was
  // created at `epoch`.
  void AddSpans(int pid, const Probe& probe, Clock::time_point epoch,
                double cps) {
    static const char* const kNames[] = {"txn", "workload.next", "txn.plan",
                                         "txn.exec"};
    const double base = Us(epoch);
    for (const ThreadStats& t : probe.threads()) {
      for (const Span& s : t.spans) {
        events_.push_back(Event{kNames[static_cast<int>(s.kind)], pid,
                                s.worker * 100 + s.lane,
                                base + static_cast<double>(s.start) / cps * 1e6,
                                base + static_cast<double>(s.end) / cps * 1e6,
                                s.worker, s.seq});
      }
    }
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t pid = 0; pid < labels_.size(); ++pid) {
      std::fprintf(f,
                   "%s{\"name\": \"process_name\", \"ph\": \"M\", "
                   "\"pid\": %zu, \"args\": {\"name\": \"%s\"}}",
                   first ? "" : ",\n", pid, labels_[pid].c_str());
      first = false;
    }
    for (const Event& e : events_) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                   first ? "" : ",\n", e.name, e.pid, e.tid, e.start_us,
                   e.end_us - e.start_us);
      if (e.worker >= 0) {
        std::fprintf(f, ", \"args\": {\"txn\": \"%d.%llu\"}", e.worker,
                     static_cast<unsigned long long>(e.seq));
      }
      std::fprintf(f, "}");
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr int kMainTid = 9999;

  struct Event {
    const char* name;
    int pid;
    int tid;
    double start_us;
    double end_us;
    int worker;
    std::uint64_t seq;
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<std::string> labels_;
  std::vector<Event> events_;
};

// ------------------------------------------------------------- checks

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

std::string Fmt(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// One entry per check name: a check that runs on every segment passes only
// if it passed every time, and keeps the detail of its first failure.
class Checks {
 public:
  void Add(const std::string& name, bool ok, const std::string& detail) {
    for (Check& c : checks_) {
      if (c.name != name) continue;
      if (c.ok && !ok) c.detail = detail;
      c.ok = c.ok && ok;
      return;
    }
    checks_.push_back(Check{name, ok, detail});
  }
  void Equal(const std::string& name, std::uint64_t got, std::uint64_t want) {
    Add(name, got == want,
        Fmt("%.0f vs %.0f", static_cast<double>(got),
            static_cast<double>(want)));
  }
  bool ok() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const Check& c) { return c.ok; });
  }
  const std::vector<Check>& list() const { return checks_; }

 private:
  std::vector<Check> checks_;
};

// ----------------------------------------------------------- segments

// Probe aggregates summed over worker threads and segments (spans
// excluded).
struct Totals {
  std::uint64_t nexts = 0;
  std::uint64_t plans = 0;
  std::uint64_t commits = 0;
  std::uint64_t rmw_commits = 0;
  std::uint64_t replans = 0;
  hal::Cycles next_cycles = 0;
  hal::Cycles plan_cycles = 0;
  hal::Cycles exec_cycles = 0;
  hal::Cycles child_cycles = 0;   // all time inside the probed calls
  hal::Cycles window_cycles = 0;  // sum of active windows
  LatencyRecorder latency;

  void Add(const Probe& probe) {
    for (const ThreadStats& t : probe.threads()) {
      nexts += t.nexts;
      plans += t.plans;
      commits += t.commits;
      rmw_commits += t.rmw_commits;
      replans += t.replans;
      next_cycles += t.next_cycles;
      plan_cycles += t.plan_cycles;
      exec_cycles += t.exec_cycles;
      child_cycles += t.next_cycles + t.plan_cycles + t.exec_cycles +
                      t.replan_exec_cycles;
      if (t.active() && t.last > t.first) window_cycles += t.last - t.first;
      latency.Merge(t.latency);
    }
  }

  void Add(const Totals& o) {
    nexts += o.nexts;
    plans += o.plans;
    commits += o.commits;
    rmw_commits += o.rmw_commits;
    replans += o.replans;
    next_cycles += o.next_cycles;
    plan_cycles += o.plan_cycles;
    exec_cycles += o.exec_cycles;
    child_cycles += o.child_cycles;
    window_cycles += o.window_cycles;
    latency.Merge(o.latency);
  }
};

// One Engine::Run.
struct Segment {
  RunResult run;
  Totals totals;
  double cps = 0;

  double Us(double cycles) const { return cycles / cps * 1e6; }
  double Throughput() const { return run.Throughput(); }
  double LatencyUs(double q) const { return Us(totals.latency.Quantile(q)); }
};

// Everything measured for one engine on one workload.
struct EngineRun {
  EngineKind kind;
  std::vector<bool> is_cc;        // per worker id
  Totals all;                     // every segment, for the checks
  std::vector<Segment> untraced;  // measured, tracing off
  std::vector<Segment> traced;
  std::vector<double> mem_mib;  // peak growth during each segment
  double lookup_ns = 0;

  explicit EngineRun(EngineKind k) : kind(k), is_cc(kCores, false) {
    const std::unique_ptr<engine::Engine> eng = MakeEngine(k, 0);
    if (auto* o = dynamic_cast<engine::OrthrusEngine*>(eng.get())) {
      for (int w = 0; w < kCores; ++w) is_cc[w] = o->IsCcWorker(w);
    }
  }

  std::string Prefix() const { return std::string(EngineName(kind)) + "."; }
  int TxnWorkers() const {
    return static_cast<int>(std::count(is_cc.begin(), is_cc.end(), false));
  }
};

struct Context {
  const WorkloadSpec* spec;
  workload::Workload* wl;
  storage::Database* db;
  HeapSampler* heap;
  TraceFile* trace_file;  // null when not tracing
  Checks* checks;
};

Segment RunSegment(const Context& cx, EngineRun* e, double seconds,
                   bool traced) {
  std::unique_ptr<engine::Engine> eng = MakeEngine(e->kind, seconds);
  Probe probe(kCores, traced, kSpanCapacity);
  ProbedWorkload probed(cx.wl, &probe);
  const Clock::time_point r0 = Clock::now();
  hal::NativePlatform platform(kCores);
  Segment s;
  s.cps = platform.CyclesPerSecond();
  s.run = eng->Run(&platform, cx.db, probed);
  const Clock::time_point r1 = Clock::now();
  e->mem_mib.push_back(cx.heap->TakePeakMiB());
  s.totals.Add(probe);
  e->all.Add(probe);

  const std::string p = e->Prefix();
  const std::uint64_t committed = s.run.total.committed;
  Checks& c = *cx.checks;
  c.Add(p + "committed.nonzero", committed > 0, "");
  c.Equal(p + "probe.commits", s.totals.commits, committed);
  c.Equal(p + "latency.samples", s.totals.latency.count(), committed);
  // The engine stamps its own latency sample after ours (2PL: after lock
  // release) and its histogram reports a bucket's upper edge, so our p50
  // sits at or a little below it. The 1/64 slack covers our half-bucket.
  const double ours = s.LatencyUs(0.5);
  const double engine_p50 =
      s.Us(static_cast<double>(s.run.total.txn_latency.Percentile(0.5)));
  const double r = Ratio(ours, engine_p50);
  c.Add(p + "latency.p50_vs_engine", r > 0.5 && r <= 1.0 + 1.0 / 64,
        Fmt("%.3f us vs %.3f us", ours, engine_p50));
  if (traced) {
    const int pid = cx.trace_file->BeginProcess(
        std::string(cx.spec->name) + "/" + EngineName(e->kind) + "/" +
        std::to_string(e->traced.size()));
    cx.trace_file->AddMain(pid, "engine.run", r0, r1);
    cx.trace_file->AddSpans(pid, probe, r0, s.cps);
  }
  return s;
}

// Mean ns per Table::Lookup, single-threaded after the run, over
// kLookupKeys (table, key) pairs taken from the access sets of a fresh
// source of the same workload.
double LookupNs(const workload::Workload& wl, storage::Database* db,
                Checks* checks) {
  std::unique_ptr<workload::TxnSource> source = wl.MakeSource(kCores);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> keys;
  keys.reserve(kLookupKeys);
  txn::Txn t;
  while (keys.size() < kLookupKeys) {
    source->Next(&t);
    txn::OllpPlan(&t, db);
    for (const txn::Access& a : t.accesses) {
      if (keys.size() < kLookupKeys) keys.emplace_back(a.table, a.key);
    }
  }
  std::uint64_t missing = 0;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [table, key] : keys) {
    missing += db->GetTable(table)->Lookup(key) == nullptr ? 1 : 0;
  }
  const double s = Since(t0, Clock::now());
  checks->Equal("lookup.missing", missing, 0);
  return s * 1e9 / static_cast<double>(keys.size());
}

// Whole-database invariants over everything both engines committed.
void CheckDatabase(const Context& cx, const std::vector<EngineRun>& engines) {
  std::uint64_t commits = 0;
  std::uint64_t rmw_commits = 0;
  for (const EngineRun& e : engines) {
    commits += e.all.commits;
    rmw_commits += e.all.rmw_commits;
  }
  Checks& c = *cx.checks;
  if (auto* kv = dynamic_cast<workload::KvWorkload*>(cx.wl)) {
    c.Equal("kv.counters", kv->SumCounters(*cx.db),
            rmw_commits *
                static_cast<std::uint64_t>(kv->config().ops_per_txn));
  }
  if (auto* tpcc = dynamic_cast<workload::tpcc::TpccWorkload*>(cx.wl)) {
    const workload::tpcc::TpccTallies::Tally tally =
        tpcc->aux()->tallies.Sum();
    c.Equal("tpcc.tally_commits", tally.neworders + tally.payments, commits);
    c.Equal("tpcc.orders_placed", tpcc->TotalOrdersPlaced(*cx.db),
            tally.neworders);
    c.Equal("tpcc.warehouse_ytd", tpcc->TotalWarehouseYtd(*cx.db),
            tally.payment_cents);
    c.Equal("tpcc.stock_ytd", tpcc->TotalStockYtd(*cx.db), tally.ordered_qty);
  }
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void EndToEnd(const EngineRun& e, double speed, std::vector<Metric>* out) {
  const std::string p = e.Prefix();
  std::vector<double> tput;
  std::vector<double> p50;
  std::vector<double> p99;
  LatencyRecorder merged;
  for (const Segment& s : e.untraced) {
    tput.push_back(s.Throughput());
    p50.push_back(s.LatencyUs(0.50));
    p99.push_back(s.LatencyUs(0.99));
    merged.Merge(s.totals.latency);
  }
  const double cps = e.untraced.front().cps;
  out->push_back({p + "commits_per_s", Median(tput), "txn/s"});
  out->push_back({p + "commit_p50_us", Median(p50), "us"});
  out->push_back({p + "commit_p99_us", Median(p99), "us"});
  // The gated forms: the same medians scaled to the nominal host, a host
  // `speed` times faster doing `speed` times the work per second.
  out->push_back({p + "norm_commits_per_s", Median(tput) / speed, "txn/s"});
  out->push_back({p + "norm_commit_p50_us", Median(p50) * speed, "us"});
  out->push_back({p + "norm_commit_p99_us", Median(p99) * speed, "us"});
  // Printed, not gated: over all segments' samples, p99.9 does not repeat
  // within any useful bound on a shared 4-core host.
  out->push_back(
      {p + "commit_p999_us", merged.Quantile(0.999) / cps * 1e6, "us"});
  out->push_back(
      {p + "latency_samples", static_cast<double>(merged.count()), "count"});
  out->push_back({p + "samples_beyond_p999",
                  static_cast<double>(merged.CountAbove(0.999)), "count"});
  out->push_back({p + "failed_ratio",
                  Ratio(static_cast<double>(e.all.nexts - e.all.commits),
                        static_cast<double>(e.all.nexts)),
                  "ratio"});
  out->push_back({p + "mem_mb", Median(e.mem_mib), "MiB"});
}

void PerLayer(const EngineRun& e, std::vector<Metric>* out) {
  const std::string p = e.Prefix();
  Totals tot;
  WorkerStats ws;
  std::vector<WorkerStats> per_worker(kCores);
  std::vector<double> traced_tput;
  std::vector<double> untraced_tput;
  for (const Segment& s : e.traced) {
    tot.Add(s.totals);
    ws.Merge(s.run.total);
    for (std::size_t w = 0; w < s.run.per_worker.size(); ++w) {
      per_worker[w].Merge(s.run.per_worker[w]);
    }
    traced_tput.push_back(s.Throughput());
  }
  for (const Segment& s : e.untraced) untraced_tput.push_back(s.Throughput());
  const double cps = e.traced.front().cps;
  const auto ns = [cps](double cycles) { return cycles / cps * 1e9; };
  const double commits = static_cast<double>(ws.committed);
  const auto per_commit = [commits](double v) { return Ratio(v, commits); };
  const auto mean_ns = [&ns](hal::Cycles c, std::uint64_t n) {
    return Ratio(ns(static_cast<double>(c)), static_cast<double>(n));
  };

  out->push_back(
      {p + "workload.next_ns", mean_ns(tot.next_cycles, tot.nexts), "ns"});
  out->push_back({p + "txn.plan_ns", mean_ns(tot.plan_cycles, tot.plans),
                  "ns"});
  out->push_back({p + "txn.exec_ns", mean_ns(tot.exec_cycles, tot.commits),
                  "ns"});
  out->push_back({p + "txn.replans_per_commit",
                  per_commit(static_cast<double>(tot.replans)), "1/txn"});
  out->push_back({p + "engine.self_ns_per_commit",
                  per_commit(ns(static_cast<double>(tot.window_cycles) -
                                static_cast<double>(tot.child_cycles))),
                  "ns/txn"});
  // Worker time the trace does not cover: elapsed time x workers that lies
  // outside every worker's window from its first Next to its last Run.
  double worker_s = 0;
  for (const Segment& s : e.traced) {
    worker_s += s.run.elapsed_seconds * e.TxnWorkers();
  }
  out->push_back(
      {p + "trace.unaccounted_frac",
       1.0 - Ratio(static_cast<double>(tot.window_cycles) / cps, worker_s),
       "ratio"});
  out->push_back({p + "storage.lookup_ns", e.lookup_ns, "ns"});
  out->push_back({p + "runtime.abort_ratio",
                  Ratio(static_cast<double>(ws.aborted),
                        static_cast<double>(ws.committed + ws.aborted)),
                  "ratio"});
  out->push_back({p + "runtime.backoffs_per_commit",
                  per_commit(static_cast<double>(ws.backoffs)), "1/txn"});
  out->push_back({p + "lock.waits_per_commit",
                  per_commit(static_cast<double>(ws.lock_waits)), "1/txn"});

  // Figure 10's split, over the transaction-running workers only.
  double cat[3] = {0, 0, 0};
  double cc_lock = 0;
  double cc_wait = 0;
  double all_cycles = 0;
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    const WorkerStats& s = per_worker[w];
    for (int i = 0; i < 3; ++i) {
      const double v = static_cast<double>(s.cycles[i]);
      all_cycles += v;
      if (!e.is_cc[w]) cat[i] += v;
    }
    if (e.is_cc[w]) {
      cc_lock += static_cast<double>(s.Get(TimeCategory::kLocking));
      cc_wait += static_cast<double>(s.Get(TimeCategory::kWaiting));
    }
  }
  const double txn_cycles = cat[0] + cat[1] + cat[2];
  out->push_back({p + "time.exec_frac", Ratio(cat[0], txn_cycles), "ratio"});
  out->push_back({p + "time.lock_frac", Ratio(cat[1], txn_cycles), "ratio"});
  out->push_back({p + "time.wait_frac", Ratio(cat[2], txn_cycles), "ratio"});

  if (e.kind == EngineKind::kOrthrus) {
    out->push_back(
        {p + "cc.busy_frac", Ratio(cc_lock, cc_lock + cc_wait), "ratio"});
    out->push_back({p + "mp.msgs_per_commit",
                    per_commit(static_cast<double>(ws.messages_sent)),
                    "1/txn"});
    out->push_back({p + "mp.send_stalls_per_commit",
                    per_commit(static_cast<double>(ws.send_stalls)),
                    "1/txn"});
    out->push_back({p + "mp.send_stall_frac",
                    Ratio(static_cast<double>(ws.send_stall_cycles),
                          all_cycles),
                    "ratio"});
    out->push_back({p + "cc.batch_occupancy",
                    Ratio(static_cast<double>(ws.cc_batch_msgs),
                          static_cast<double>(ws.cc_batches)),
                    "msgs"});
  }
  out->push_back(
      {p + "engine.hist_p50_us",
       static_cast<double>(ws.txn_latency.Percentile(0.5)) / cps * 1e6,
       "us"});
  out->push_back({p + "trace.overhead",
                  1.0 - Ratio(Median(traced_tput), Median(untraced_tput)),
                  "ratio"});
}

// ----------------------------------------------------------- workload

struct WorkloadResult {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Checks checks;
};

// Wall time of Workload::Load alone, on a database that is then dropped.
double LoadSeconds(const WorkloadSpec& spec, std::uint64_t seed) {
  std::unique_ptr<workload::Workload> wl = spec.make(seed);
  storage::Database db;
  const Clock::time_point t0 = Clock::now();
  wl->Load(&db, 1);
  return Since(t0, Clock::now());
}

WorkloadResult RunWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                           double seconds, TraceFile* trace_file) {
  WorkloadResult r;
  r.workload = spec.name;
  const bool traced = trace_file != nullptr;
  std::vector<double> loads;  // the measured database's load comes last
  double load_total = 0;
  while (!traced && static_cast<int>(loads.size()) + 1 < kMaxLoads &&
         (static_cast<int>(loads.size()) + 1 < kMinLoads ||
          load_total < kLoadBudgetSeconds)) {
    loads.push_back(LoadSeconds(spec, seed));
    load_total += loads.back();
  }

  std::unique_ptr<workload::Workload> wl = spec.make(seed);
  // Built before the sampler: its 32 MiB table is not the engines' memory.
  HostReference host(kCores);
  HeapSampler heap;
  storage::Database db;
  const Clock::time_point l0 = Clock::now();
  wl->Load(&db, 1);
  const Clock::time_point l1 = Clock::now();
  loads.push_back(Since(l0, l1));
  // ORTHRUS routes locks by the partitioner; one CC thread owns them all.
  db.partitioner().n = kOrthrusCc;
  if (traced) {
    trace_file->AddMain(trace_file->BeginProcess(r.workload + "/setup"),
                        "storage.load", l0, l1);
  }

  const Context cx{&spec, wl.get(), &db, &heap, trace_file, &r.checks};
  std::vector<EngineRun> engines = {EngineRun(EngineKind::kOrthrus),
                                    EngineRun(EngineKind::kTwoPl)};
  for (EngineRun& e : engines) RunSegment(cx, &e, kWarmupSeconds, false);
  // A traced invocation gives each engine half its time traced.
  const double per_mode = traced ? seconds / 2 : seconds;
  const int n = std::max(1, static_cast<int>(
                                std::lround(per_mode / kSegmentSeconds)));
  std::vector<double> speeds;
  for (int i = 0; i < n; ++i) {
    if (!traced) speeds.push_back(host.Measure());
    for (EngineRun& e : engines) {
      e.untraced.push_back(RunSegment(cx, &e, per_mode / n, false));
    }
    if (!traced) continue;
    for (EngineRun& e : engines) {
      e.traced.push_back(RunSegment(cx, &e, per_mode / n, true));
    }
  }
  CheckDatabase(cx, engines);

  for (EngineRun& e : engines) {
    r.attempted += e.all.nexts;
    r.failed += e.all.nexts - std::min(e.all.nexts, e.all.commits);
    if (traced) {
      e.lookup_ns = LookupNs(*wl, &db, &r.checks);
      PerLayer(e, &r.metrics);
    } else {
      EndToEnd(e, Median(speeds), &r.metrics);
    }
  }
  if (!traced) {
    // Gated like the norm_ metrics: scaled to the nominal host. Loads after
    // the first reuse memory the allocator kept, so for the small
    // workloads they are CPU-bound and follow the host's speed.
    r.metrics.push_back({"setup_s", Median(loads) * Median(speeds), "s"});
    r.metrics.push_back({"raw_setup_s", Median(loads), "s"});
    r.metrics.push_back({"host.speed", Median(speeds), "ratio"});
  }
  return r;
}

// ------------------------------------------------------------- output

void PrintJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::fputc('\\', f);
    std::fputc(ch, f);
  }
  std::fputc('"', f);
}

bool WriteOut(const std::string& path, std::uint64_t seed, double seconds,
              bool traced, const std::vector<WorkloadResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"seed\": %llu, \"seconds\": %.17g, \"trace\": %s, "
               "\"results\": [",
               static_cast<unsigned long long>(seed), seconds,
               traced ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::fprintf(f, "%s\n  {\"workload\": ", i == 0 ? "" : ",");
    PrintJsonString(f, r.workload);
    std::fprintf(f,
                 ", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
                 "\n   \"checks\": [",
                 r.checks.ok() ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    const std::vector<Check>& checks = r.checks.list();
    for (std::size_t j = 0; j < checks.size(); ++j) {
      std::fprintf(f, "%s{\"name\": ", j == 0 ? "" : ", ");
      PrintJsonString(f, checks[j].name);
      std::fprintf(f, ", \"ok\": %s, \"detail\": ",
                   checks[j].ok ? "true" : "false");
      PrintJsonString(f, checks[j].detail);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "],\n   \"metrics\": {");
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      std::fprintf(f, "%s\n    ", j == 0 ? "" : ",");
      PrintJsonString(f, m.name);
      std::fprintf(f, ": {\"value\": %.17g, \"unit\": ",
                   std::isfinite(m.value) ? m.value : 0.0);
      PrintJsonString(f, m.unit);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// -------------------------------------------------------------- main

struct Args {
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 8.0;
  std::string workload;
  std::string out;
  std::string trace;
};

int Usage(const std::string& msg) {
  std::fprintf(stderr,
               "oltp_bench: %s\nusage: oltp_bench --seed N [--seconds S] "
               "[--workload NAME] [--out FILE] [--trace FILE]\nworkloads:",
               msg.c_str());
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      a.have_seed = *v != '\0' && *end == '\0';
      if (!a.have_seed) return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace") {
      a.trace = v;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!a.have_seed) return Usage("--seed is required");
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : kWorkloads) {
    if (a.workload.empty() || a.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage("unknown workload " + a.workload);

  const bool traced = !a.trace.empty();
  TraceFile trace_file(origin);
  std::vector<WorkloadResult> results;
  for (const WorkloadSpec* spec : selected) {
    WorkloadResult r =
        RunWorkload(*spec, a.seed, a.seconds, traced ? &trace_file : nullptr);
    for (const Metric& m : r.metrics) {
      std::printf("%s %s %.10g %s\n", m.name.c_str(), r.workload.c_str(),
                  m.value, m.unit.c_str());
    }
    std::fflush(stdout);
    for (const Check& c : r.checks.list()) {
      if (!c.ok) {
        std::fprintf(stderr, "oltp_bench: %s: check %s failed (%s)\n",
                     r.workload.c_str(), c.name.c_str(), c.detail.c_str());
      }
    }
    results.push_back(std::move(r));
  }

  if (!a.out.empty() && !WriteOut(a.out, a.seed, a.seconds, traced, results)) {
    std::fprintf(stderr, "oltp_bench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  if (traced && !trace_file.Write(a.trace)) {
    std::fprintf(stderr, "oltp_bench: cannot write %s\n", a.trace.c_str());
    return 1;
  }
  const bool all_correct =
      std::all_of(results.begin(), results.end(),
                  [](const WorkloadResult& r) { return r.checks.ok(); });
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace orthrus::bench::oltp

int main(int argc, char** argv) {
  return orthrus::bench::oltp::Main(argc, argv);
}
