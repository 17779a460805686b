// Figure 6: throughput as the number of partitions accessed per transaction
// varies (uniform 10-RMW transactions, 80 cores).
//
// Expected shape: Partitioned-store wins at 1 partition/txn and collapses
// sharply from 2 on (coarse partition locks serialize transactions that
// merely share a partition); ORTHRUS degrades gently (more message hops per
// chain: Ncc+1); Deadlock-free is flat (shared-everything: partitions mean
// nothing to it); the SPLIT variants run above their unsplit counterparts
// at low partition counts and converge to them as transactions spread.
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

  {  // Partitioned-store: 80 partitions (one per worker), split indexes.
    std::vector<double> tputs;
    for (int k : parts_per_txn) {
      workload::KvWorkload wl(kv_for(kCores, true, k));
      engine::PartitionedEngine eng(BenchOptions(kCores));
      RunResult r = RunPoint(&eng, &wl, kCores, kCores);
      tputs.push_back(r.Throughput());
    }
    PrintRow("partitioned-store", tputs);
  }
  {  // SPLIT ORTHRUS: 16 CC threads, split indexes.
    std::vector<double> tputs;
    for (int k : parts_per_txn) {
      workload::KvWorkload wl(kv_for(kCc, false, std::min(k, kCc)));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      RunResult r = RunPoint(&eng, &wl, kCores, kCc);
      tputs.push_back(r.Throughput());
    }
    PrintRow("split-orthrus", tputs);
  }
  {  // ORTHRUS: 16 CC threads, shared index.
    std::vector<double> tputs;
    for (int k : parts_per_txn) {
      workload::KvWorkload wl(kv_for(kCc, false, std::min(k, kCc)));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      RunResult r = RunPoint(&eng, &wl, kCores, 1);
      tputs.push_back(r.Throughput());
    }
    PrintRow("orthrus", tputs);
  }
  {  // Split Deadlock-free: shared-everything locking over split indexes.
    std::vector<double> tputs;
    for (int k : parts_per_txn) {
      workload::KvWorkload wl(kv_for(kCores, false, k));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      RunResult r = RunPoint(&eng, &wl, kCores, kCores);
      tputs.push_back(r.Throughput());
    }
    PrintRow("split-deadlock-free", tputs);
  }
  {  // Deadlock-free locking: partition count is irrelevant to it.
    std::vector<double> tputs;
    for (int k : parts_per_txn) {
      workload::KvWorkload wl(kv_for(kCores, false, k));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      RunResult r = RunPoint(&eng, &wl, kCores, 1);
      tputs.push_back(r.Throughput());
    }
    PrintRow("deadlock-free", tputs);
  }
  return 0;
}
