// Ablation: the execution-thread in-flight window (Section 3.3's
// asynchrony). With window 1 an execution thread blocks on every lock
// grant, wasting its core during queueing delays; wider windows overlap
// those delays with other transactions' work — at the price of holding more
// locks concurrently (which can hurt under extreme contention).
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;
  const std::vector<int> windows = {1, 2, 4, 8, 16, 32};
  std::vector<std::string> xs;
  for (int w : windows) xs.push_back(std::to_string(w));
  PrintHeader("Ablation: exec-thread in-flight window, 80 cores",
              "tput (M/s) @window", xs);

  for (bool contended : {false, true}) {
    std::vector<double> tputs;
    for (int window : windows) {
      workload::KvConfig kv;
      kv.num_records = KvRecords();
      kv.row_bytes = KvRowBytes();
      kv.num_partitions = kCc;
      kv.hot_records = contended ? 64 : 0;
      kv.seed = 44;
      workload::KvWorkload wl(kv);
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      oo.max_inflight = window;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      tputs.push_back(RunPoint(&eng, &wl, kCores).Throughput());
    }
    PrintRow(contended ? "high contention" : "uniform", tputs);
  }
  return 0;
}
