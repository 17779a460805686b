// Ablation: partitioned vs shared CC lock table (Section 3.4).
//
// ORTHRUS partitions the lock space so each CC thread's meta-data is
// strictly core-local. The paper's alternative shares one latched lock
// table among CC threads: synchronization returns, but only across the
// small set of CC threads, and any single CC thread can acquire a whole
// transaction's lock set (one message round-trip regardless of how many
// partitions the keys would have spanned).
//
// Expected shape: the shared table wins when transactions would chain
// across many CC threads (it has no chains: one home CC thread acquires
// the whole lock set), and loses as the CC-thread count grows (stripe-latch
// contention among CC threads) or when transactions are single-partition,
// where a partitioned transaction visits one CC thread and takes no latch.
// Under Zipfian skew the shared table also self-balances CC load,
// while the partitioned table's hottest partition saturates first
// (Section 3.3's utilization-imbalance discussion).
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const std::vector<int> cc_counts = {2, 4, 8, 16};
  std::vector<std::string> xs;
  for (int c : cc_counts) xs.push_back(std::to_string(c));

  auto make_kv = [&](int n_cc, double zipf, int parts_per_txn) {
    workload::KvConfig kv;
    kv.num_records = KvRecords();
    kv.row_bytes = KvRowBytes();
    kv.num_partitions = n_cc;
    kv.seed = 55;
    if (zipf > 0) {
      kv.zipf_theta = zipf;
      kv.placement = workload::KvConfig::Placement::kUniform;
    } else {
      kv.placement = workload::KvConfig::Placement::kFixedCount;
      kv.partitions_per_txn = std::min(parts_per_txn, n_cc);
    }
    return kv;
  };

  auto run_sweep = [&](const char* title, double zipf, int parts_per_txn) {
    PrintHeader(title, "tput (M/s) @cc", xs);
    for (bool shared : {false, true}) {
      std::vector<double> tputs;
      for (int n_cc : cc_counts) {
        workload::KvWorkload wl(make_kv(n_cc, zipf, parts_per_txn));
        engine::OrthrusOptions oo;
        oo.num_cc = n_cc;
        oo.shared_cc_table = shared;
        engine::OrthrusEngine eng(BenchOptions(kCores), oo);
        tputs.push_back(RunPoint(&eng, &wl, kCores, 1).Throughput());
      }
      PrintRow(shared ? "shared-cc-table" : "partitioned-cc", tputs);
    }
  };

  run_sweep("Ablation 3.4a: uniform single-partition txns", 0.0, 1);
  run_sweep("Ablation 3.4b: uniform 4-partition txns", 0.0, 4);
  run_sweep("Ablation 3.4c: zipfian skew (theta=0.9, imbalanced CC load)",
            0.9, 0);
  return 0;
}
