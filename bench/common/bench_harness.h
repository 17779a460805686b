// Shared benchmark harness: builds a fresh database + simulator per data
// point, runs an engine, and prints paper-style rows.
//
// Environment knobs:
//   ORTHRUS_BENCH_MS      virtual milliseconds per data point (default 5)
//   ORTHRUS_BENCH_RECORDS table size for the KV workloads (default 200000)
//   ORTHRUS_PAPER_SCALE   set to 1 for paper-sized tables (10M x 1000B) —
//                         needs tens of GB and long runs; off by default.
//   ORTHRUS_PAPER_SCALE_RECORDS
//                         overrides the paper-scale row count (keeps the
//                         1000B rows); lets CI run the paper configuration
//                         on hosts that cannot hold the full 10M rows.
//   ORTHRUS_BENCH_MAX_CORES
//                         caps the simulated core counts in scaling sweeps
//                         (0 = no cap); the scaled-down nightly uses this
//                         to bound wall time.
//   ORTHRUS_BENCH_JSON_DIR
//                         when set, each figure driver also writes
//                         <dir>/BENCH_<figure>.json with one record per
//                         (series, x) point — throughput and p99 commit
//                         latency — so the nightly can archive trend data.
//                         Unset: no filesystem effects.
#ifndef ORTHRUS_BENCH_COMMON_BENCH_HARNESS_H_
#define ORTHRUS_BENCH_COMMON_BENCH_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/sim_platform.h"
#include "workload/micro.h"
#include "workload/tpcc/tpcc_workload.h"
#include "workload/ycsb.h"

namespace orthrus::bench {

inline double EnvDouble(const char* name, double def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : def;
}

inline std::uint64_t EnvU64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

inline double PointSeconds() {
  return EnvDouble("ORTHRUS_BENCH_MS", 5.0) / 1000.0;
}

inline bool PaperScale() { return EnvU64("ORTHRUS_PAPER_SCALE", 0) != 0; }

inline std::uint64_t KvRecords() {
  if (PaperScale()) return EnvU64("ORTHRUS_PAPER_SCALE_RECORDS", 10'000'000);
  return EnvU64("ORTHRUS_BENCH_RECORDS", 200'000);
}

inline std::uint32_t KvRowBytes() { return PaperScale() ? 1000 : 100; }

// Filters a scaling sweep's core counts through ORTHRUS_BENCH_MAX_CORES.
// A cap below the smallest configured point falls back to that smallest
// point rather than the raw cap: the figure drivers derive engine shapes
// (e.g. ORTHRUS CC/exec splits) from their own core lists, and an
// arbitrary small count could produce an invalid configuration.
inline std::vector<int> CoreSweep(std::vector<int> defaults) {
  const int cap = static_cast<int>(EnvU64("ORTHRUS_BENCH_MAX_CORES", 0));
  if (cap <= 0) return defaults;
  std::vector<int> out;
  for (int c : defaults) {
    if (c <= cap) out.push_back(c);
  }
  if (out.empty() && !defaults.empty()) {
    out.push_back(*std::min_element(defaults.begin(), defaults.end()));
  }
  return out;
}

inline engine::EngineOptions BenchOptions(int cores) {
  engine::EngineOptions o;
  o.num_cores = cores;
  o.duration_seconds = PointSeconds();
  return o;
}

// Runs `eng` on a fresh database loaded from `wl`. `table_partitions` > 1
// builds split indexes; `partitioner_n` overrides the partition universe
// after load when nonzero (e.g. ORTHRUS CC count over unsplit tables).
inline RunResult RunPoint(engine::Engine* eng, workload::Workload* wl,
                          int cores, int table_partitions,
                          int partitioner_n = 0) {
  storage::Database db;
  wl->Load(&db, table_partitions);
  if (partitioner_n != 0) db.partitioner().n = partitioner_n;
  hal::SimPlatform sim(cores);
  return eng->Run(&sim, &db, *wl);
}

// Prints one series row: label followed by throughput values in Mtxns/s.
inline void PrintHeader(const std::string& title, const std::string& xlabel,
                        const std::vector<std::string>& xs) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-22s", xlabel.c_str());
  for (const std::string& x : xs) std::printf("%12s", x.c_str());
  std::printf("\n");
}

inline void PrintRow(const std::string& label,
                     const std::vector<double>& tputs) {
  std::printf("%-22s", label.c_str());
  for (double t : tputs) std::printf("%12.3f", t / 1e6);
  std::printf("\n");
}

inline void PrintNote(const std::string& note) {
  std::printf("%s\n", note.c_str());
}

// --- Machine-readable per-figure output (nightly trend data). ---
//
// Drivers call JsonFigure("fig12_ycsb_rmw") once and JsonPoint(...) per
// data point; the report is written when the process exits. All of it is
// inert unless ORTHRUS_BENCH_JSON_DIR is set.

struct JsonRecord {
  std::string series;
  std::string x;
  double throughput_txns_per_sec;
  double p99_commit_latency_us;
  double abort_rate;
  std::uint64_t committed;
  double elapsed_seconds;
};

class JsonReport {
 public:
  static JsonReport& Instance() {
    static JsonReport r;
    return r;
  }

  void SetFigure(const std::string& name) { figure_ = name; }

  void Add(const std::string& series, const std::string& x,
           const RunResult& r) {
    if (std::getenv("ORTHRUS_BENCH_JSON_DIR") == nullptr) return;
    JsonRecord rec;
    rec.series = series;
    rec.x = x;
    rec.throughput_txns_per_sec = r.Throughput();
    // txn_latency records cycles of the platform the run used.
    rec.p99_commit_latency_us =
        static_cast<double>(r.total.txn_latency.Percentile(0.99)) /
        (r.cycles_per_second / 1e6);
    rec.abort_rate = r.AbortRate();
    rec.committed = r.total.committed;
    rec.elapsed_seconds = r.elapsed_seconds;
    records_.push_back(std::move(rec));
  }

  ~JsonReport() { Write(); }

 private:
  void Write() {
    const char* dir = std::getenv("ORTHRUS_BENCH_JSON_DIR");
    if (dir == nullptr || figure_.empty() || records_.empty()) return;
    const std::string path =
        std::string(dir) + "/BENCH_" + figure_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n", figure_.c_str());
    std::fprintf(f, "  \"paper_scale\": %s,\n",
                 PaperScale() ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      std::fprintf(f,
                   "    {\"series\": \"%s\", \"x\": \"%s\", "
                   "\"throughput_txns_per_sec\": %.1f, "
                   "\"p99_commit_latency_us\": %.3f, "
                   "\"abort_rate\": %.6f, "
                   "\"committed\": %llu, "
                   "\"elapsed_seconds\": %.6f}%s\n",
                   r.series.c_str(), r.x.c_str(),
                   r.throughput_txns_per_sec, r.p99_commit_latency_us,
                   r.abort_rate,
                   static_cast<unsigned long long>(r.committed),
                   r.elapsed_seconds,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  std::string figure_;
  std::vector<JsonRecord> records_;
};

inline void JsonFigure(const std::string& name) {
  JsonReport::Instance().SetFigure(name);
}

inline void JsonPoint(const std::string& series, const std::string& x,
                      const RunResult& r) {
  JsonReport::Instance().Add(series, x, r);
}

}  // namespace orthrus::bench

#endif  // ORTHRUS_BENCH_COMMON_BENCH_HARNESS_H_
