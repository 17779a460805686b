// Figure 7: throughput as the percentage of multi-partition transactions
// varies (multi-partition transactions touch exactly two partitions;
// 80 cores).
//
// Expected shape: Partitioned-store starts highest at 0% and decays fastest
// as multi-partition work grows; ORTHRUS decays gently (extra message hops)
// and stays above Deadlock-free across the whole range, including 100%.
#include <functional>
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
  JsonFigure("fig07_multipartition_pct");

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
  // One series: `run(pct)` measures the point at pct% multi-partition.
  auto series = [&](const std::string& label,
                    const std::function<PointResult(int)>& run) {
    std::vector<double> tputs;
    for (std::size_t i = 0; i < pct_multi.size(); ++i) {
      PointResult r = run(pct_multi[i]);
      JsonPoint(label, xs[i], r);
      tputs.push_back(r.Throughput());
    }
    PrintRow(label, tputs);
  };

  series("partitioned-store", [&](int pct) {
    workload::KvWorkload wl(kv_for(kCores, true, pct));
    engine::PartitionedEngine eng(BenchOptions(kCores));
    return RunPoint(&eng, &wl, kCores);
  });
  series("orthrus", [&](int pct) {
    workload::KvWorkload wl(kv_for(kCc, false, pct));
    engine::OrthrusOptions oo;
    oo.num_cc = kCc;
    engine::OrthrusEngine eng(BenchOptions(kCores), oo);
    return RunPoint(&eng, &wl, kCores);
  });
  series("deadlock-free", [&](int pct) {
    workload::KvWorkload wl(kv_for(kCores, false, pct));
    engine::DeadlockFreeEngine eng(BenchOptions(kCores));
    return RunPoint(&eng, &wl, kCores);
  });
  return 0;
}
