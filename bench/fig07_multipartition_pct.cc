// Figure 7: throughput as the percentage of multi-partition transactions
// varies (multi-partition transactions touch exactly two partitions;
// 80 cores).
//
// Expected shape: Partitioned-store starts highest at 0% and decays fastest
// as multi-partition work grows; ORTHRUS decays gently (extra message hops)
// and stays above Deadlock-free across the whole range, including 100%.
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;
  const std::vector<int> pct_multi = {0, 20, 40, 60, 80, 100};
  std::vector<std::string> xs;
  for (int p : pct_multi) xs.push_back(std::to_string(p) + "%");
  PrintHeader("Figure 7: percentage of multi-partition txns (80 cores)",
              "tput (M/s) @multi", xs);

  auto kv_for = [&](int universe, bool local_affinity, int pct) {
    workload::KvConfig kv;
    kv.num_records = KvRecords();
    kv.row_bytes = KvRowBytes();
    kv.num_partitions = universe;
    kv.placement = workload::KvConfig::Placement::kPctMulti;
    kv.pct_multi = pct;
    kv.local_affinity = local_affinity;
    kv.seed = 7;
    return kv;
  };

  {
    std::vector<double> tputs;
    for (int pct : pct_multi) {
      workload::KvWorkload wl(kv_for(kCores, true, pct));
      engine::PartitionedEngine eng(BenchOptions(kCores));
      tputs.push_back(RunPoint(&eng, &wl, kCores, kCores).Throughput());
    }
    PrintRow("partitioned-store", tputs);
  }
  {
    std::vector<double> tputs;
    for (int pct : pct_multi) {
      workload::KvWorkload wl(kv_for(kCc, false, pct));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      tputs.push_back(RunPoint(&eng, &wl, kCores, kCc).Throughput());
    }
    PrintRow("split-orthrus", tputs);
  }
  {
    std::vector<double> tputs;
    for (int pct : pct_multi) {
      workload::KvWorkload wl(kv_for(kCc, false, pct));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      tputs.push_back(RunPoint(&eng, &wl, kCores, 1).Throughput());
    }
    PrintRow("orthrus", tputs);
  }
  {
    std::vector<double> tputs;
    for (int pct : pct_multi) {
      workload::KvWorkload wl(kv_for(kCores, false, pct));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      tputs.push_back(RunPoint(&eng, &wl, kCores, kCores).Throughput());
    }
    PrintRow("split-deadlock-free", tputs);
  }
  {
    std::vector<double> tputs;
    for (int pct : pct_multi) {
      workload::KvWorkload wl(kv_for(kCores, false, pct));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      tputs.push_back(RunPoint(&eng, &wl, kCores, 1).Throughput());
    }
    PrintRow("deadlock-free", tputs);
  }
  return 0;
}
