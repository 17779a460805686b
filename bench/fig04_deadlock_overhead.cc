// Figure 4: throughput of the three deadlock-handling mechanisms versus
// Deadlock-free locking while varying the number of hot records (contention
// rises left to right as the hot set shrinks), at 10 and at 80 cores.
//
// Expected shape (80 cores): deadlock-free dominates everywhere and its
// advantage grows with contention (paper: 2.2x over wait-die and 5.5x over
// dreadlocks / wait-for graph at 64 hot records); wait-die loses to the
// detection-based schemes under low contention (false-positive aborts) but
// wins under extreme contention (cheaper handling, earlier aborts). At 10
// cores the schemes are close.
#include <memory>
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const std::vector<std::uint64_t> hot_sizes = {8192, 4096, 2048, 1024, 512,
                                                384,  256,  192,  128,  64};
  std::vector<std::string> xs;
  for (auto h : hot_sizes) xs.push_back(std::to_string(h));

  for (int cores : {10, 80}) {
    PrintHeader("Figure 4: deadlock handling overhead, " +
                    std::to_string(cores) + " cores",
                "tput (M/s) @hot", xs);

    auto run_policy = [&](const std::string& label,
                          std::function<std::unique_ptr<engine::Engine>()>
                              make) {
      std::vector<double> tputs;
      for (std::uint64_t hot : hot_sizes) {
        workload::KvConfig kv;
        kv.num_records = KvRecords();
        kv.row_bytes = KvRowBytes();
        kv.hot_records = hot;
        kv.seed = 4;
        workload::KvWorkload wl(kv);
        auto eng = make();
        RunResult r = RunPoint(eng.get(), &wl, cores);
        tputs.push_back(r.Throughput());
      }
      PrintRow(label, tputs);
    };

    run_policy("deadlock-free", [&] {
      return std::make_unique<engine::DeadlockFreeEngine>(BenchOptions(cores));
    });
    run_policy("dreadlocks", [&] {
      return std::make_unique<engine::TwoPlEngine>(
          BenchOptions(cores), engine::DeadlockPolicyKind::kDreadlocks);
    });
    run_policy("wait-die", [&] {
      return std::make_unique<engine::TwoPlEngine>(
          BenchOptions(cores), engine::DeadlockPolicyKind::kWaitDie);
    });
    run_policy("wait-for-graph", [&] {
      return std::make_unique<engine::TwoPlEngine>(
          BenchOptions(cores), engine::DeadlockPolicyKind::kWaitForGraph);
    });
  }
  return 0;
}
