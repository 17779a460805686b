// Figure 5: ORTHRUS execution-thread scalability under fixed concurrency-
// control thread counts. Uniform 10-RMW transactions; every transaction
// acquires its locks from a single CC thread.
//
// Expected shape: each curve rises while execution threads are the
// bottleneck, then plateaus once the fixed CC threads saturate; the plateau
// height is ordered by the number of CC threads. A plateau that does not
// move with the CC count is some other limit: the atomic RMWs and RMW
// stall cycles per commit in BENCH_fig05_thread_allocation.json show
// whether a shared line is it.
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const std::vector<int> exec_counts = {4, 8, 16, 24, 32, 48, 64};
  std::vector<std::string> xs;
  for (int e : exec_counts) xs.push_back(std::to_string(e));
  PrintHeader("Figure 5: ORTHRUS thread allocation (uniform 10RMW)",
              "tput (M/s) @exec", xs);
  JsonFigure("fig05_thread_allocation");

  for (int n_cc : {4, 8, 16}) {
    std::vector<double> tputs;
    for (int n_exec : exec_counts) {
      workload::KvConfig kv;
      kv.num_records = KvRecords();
      kv.row_bytes = KvRowBytes();
      kv.num_partitions = n_cc;
      kv.placement = workload::KvConfig::Placement::kFixedCount;
      kv.partitions_per_txn = 1;  // single CC thread per transaction
      kv.seed = 5;
      workload::KvWorkload wl(kv);

      engine::OrthrusOptions oo;
      oo.num_cc = n_cc;
      engine::OrthrusEngine eng(BenchOptions(n_cc + n_exec), oo);
      PointResult r = RunPoint(&eng, &wl, n_cc + n_exec);
      JsonPoint(std::to_string(n_cc) + " cc threads", std::to_string(n_exec),
                r);
      tputs.push_back(r.Throughput());
    }
    PrintRow(std::to_string(n_cc) + " cc threads", tputs);
  }
  return 0;
}
