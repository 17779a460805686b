// Figure 6: throughput as the number of partitions accessed per transaction
// varies (uniform 10-RMW transactions, 80 cores).
//
// Expected shape: Partitioned-store wins at 1 partition/txn and collapses
// sharply from 2 on (coarse partition locks serialize transactions that
// merely share a partition); ORTHRUS degrades gently (more message hops per
// chain: Ncc+1); Deadlock-free is flat (shared-everything: partitions mean
// nothing to it).
#include <functional>
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;
  const std::vector<int> parts_per_txn = {1, 2, 4, 6, 8, 10};
  std::vector<std::string> xs;
  for (int p : parts_per_txn) xs.push_back(std::to_string(p));
  PrintHeader("Figure 6: partitions accessed per transaction (80 cores)",
              "tput (M/s) @parts", xs);
  JsonFigure("fig06_multipartition");

  auto kv_for = [&](int universe, bool local_affinity, int k) {
    workload::KvConfig kv;
    kv.num_records = KvRecords();
    kv.row_bytes = KvRowBytes();
    kv.num_partitions = universe;
    kv.placement = workload::KvConfig::Placement::kFixedCount;
    kv.partitions_per_txn = k;
    kv.local_affinity = local_affinity;
    kv.seed = 6;
    return kv;
  };
  // One series: `run(k)` measures the point at k partitions per txn.
  auto series = [&](const std::string& label,
                    const std::function<PointResult(int)>& run) {
    std::vector<double> tputs;
    for (std::size_t i = 0; i < parts_per_txn.size(); ++i) {
      PointResult r = run(parts_per_txn[i]);
      JsonPoint(label, xs[i], r);
      tputs.push_back(r.Throughput());
    }
    PrintRow(label, tputs);
  };

  // Partitioned-store: 80 partitions, one per worker.
  series("partitioned-store", [&](int k) {
    workload::KvWorkload wl(kv_for(kCores, true, k));
    engine::PartitionedEngine eng(BenchOptions(kCores));
    return RunPoint(&eng, &wl, kCores);
  });
  // ORTHRUS: 16 CC threads.
  series("orthrus", [&](int k) {
    workload::KvWorkload wl(kv_for(kCc, false, std::min(k, kCc)));
    engine::OrthrusOptions oo;
    oo.num_cc = kCc;
    engine::OrthrusEngine eng(BenchOptions(kCores), oo);
    return RunPoint(&eng, &wl, kCores);
  });
  // Deadlock-free locking: partition count is irrelevant to it.
  series("deadlock-free", [&](int k) {
    workload::KvWorkload wl(kv_for(kCores, false, k));
    engine::DeadlockFreeEngine eng(BenchOptions(kCores));
    return RunPoint(&eng, &wl, kCores);
  });
  return 0;
}
