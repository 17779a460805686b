// Figure 1: scalability of short read-only transactions under two-phase
// locking on a high-contention workload (2 hot keys from a 64-record hot
// set + 8 cold keys per transaction).
//
// Expected shape: despite the workload being conflict free (readers never
// block readers), 2PL stops scaling at mid core counts and declines toward
// 80 cores — synchronization and data-movement overhead on the lock
// manager's bucket latches and request lists, not logical conflicts.
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  JsonFigure("fig01_readonly_2pl");
  const std::vector<int> core_counts = CoreSweep({10, 20, 40, 60, 80});
  std::vector<std::string> xs;
  for (int c : core_counts) xs.push_back(std::to_string(c));
  PrintHeader("Figure 1: read-only 2PL scalability (high contention)",
              "throughput (M/s) @cores", xs);

  workload::KvConfig kv;
  kv.num_records = KvRecords();
  kv.row_bytes = KvRowBytes();
  kv.read_only = true;
  kv.hot_records = 64;
  kv.seed = 1;

  std::vector<double> tputs;
  for (int cores : core_counts) {
    workload::KvWorkload wl(kv);
    engine::TwoPlEngine eng(BenchOptions(cores),
                            engine::DeadlockPolicyKind::kDreadlocks);
    PointResult r = RunPoint(&eng, &wl, cores);
    JsonPoint("two-phase-locking", std::to_string(cores), r);
    tputs.push_back(r.Throughput());
  }
  PrintRow("two-phase-locking", tputs);
  PrintNote("(paper: peaks near 40 cores, declines at 80 despite zero "
            "logical conflicts)");
  return 0;
}
