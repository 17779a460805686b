// Extension experiment (not in the paper): commit-latency distributions.
//
// The paper reports throughput only, but the architectural trade-offs have
// a latency face too: ORTHRUS adds message round-trips to every
// transaction (higher uncontended latency) while removing deadlock
// handling and latch convoys (far better tail latency under contention).
// This bench prints p50 / p99 commit latency in microseconds of simulated
// time for each engine at low and high contention, 80 cores.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;

  auto run_one = [&](const char* label, std::uint64_t hot,
                     const std::function<std::unique_ptr<engine::Engine>()>&
                         make,
                     int partitioner_n) {
    workload::KvConfig kv;
    kv.num_records = KvRecords();
    kv.row_bytes = KvRowBytes();
    kv.hot_records = hot;
    kv.num_partitions = kCc;
    kv.seed = 77;
    workload::KvWorkload wl(kv);
    auto eng = make();
    RunResult r = RunPoint(eng.get(), &wl, kCores, partitioner_n);
    const double to_us = 1e6 / 2e9;  // cycles -> microseconds at 2 GHz
    std::printf("  %-18s tput %7.2f M/s   p50 %8.1f us   p99 %8.1f us   "
                "max %9.1f us\n",
                label, r.Throughput() / 1e6,
                r.total.txn_latency.Percentile(0.50) * to_us,
                r.total.txn_latency.Percentile(0.99) * to_us,
                static_cast<double>(r.total.txn_latency.max()) * to_us);
  };

  for (std::uint64_t hot : {0ull, 64ull}) {
    std::printf("\n=== Extension: commit latency, %s contention "
                "(80 cores) ===\n",
                hot == 0 ? "low" : "high");
    run_one("orthrus", hot,
            [&] {
              engine::OrthrusOptions oo;
              oo.num_cc = kCc;
              return std::make_unique<engine::OrthrusEngine>(
                  BenchOptions(kCores), oo);
            },
            0);
    run_one("deadlock-free", hot,
            [&] {
              return std::make_unique<engine::DeadlockFreeEngine>(
                  BenchOptions(kCores));
            },
            0);
    run_one("2pl-waitdie", hot,
            [&] {
              return std::make_unique<engine::TwoPlEngine>(
                  BenchOptions(kCores), engine::DeadlockPolicyKind::kWaitDie);
            },
            0);
    run_one("2pl-dreadlocks", hot,
            [&] {
              return std::make_unique<engine::TwoPlEngine>(
                  BenchOptions(kCores),
                  engine::DeadlockPolicyKind::kDreadlocks);
            },
            0);
  }
  std::printf("\n(aborted-and-retried transactions count their full retry "
              "time toward commit latency)\n");
  return 0;
}
