// Figure 9: TPC-C scalability under high contention (16 warehouses) while
// increasing the core count.
//
// Expected shape: deadlock-free and 2PL start equal at 10 cores (validating
// the 2PL substrate); 2PL w/ dreadlocks declines as cores are added;
// ORTHRUS keeps scaling (paper: 2x deadlock-free and ~10x 2PL at 80 cores).
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const std::vector<int> core_counts = CoreSweep({10, 20, 40, 60, 80});
  std::vector<std::string> xs;
  for (int c : core_counts) xs.push_back(std::to_string(c));
  PrintHeader("Figure 9: TPC-C scalability, 16 warehouses", "tput (M/s) @cores",
              xs);

  auto scale16 = [] {
    workload::tpcc::TpccScale s;
    s.warehouses = 16;
    s.customers_per_district = 150;
    s.items = 2000;
    s.order_ring_capacity = 16384;
    return s;
  };

  {
    std::vector<double> tputs;
    for (int cores : core_counts) {
      workload::tpcc::TpccWorkload wl(scale16());
      engine::OrthrusOptions oo;
      // Keep the paper's 1:4 CC:exec split (16 CC threads at 80 cores).
      oo.num_cc = std::max(2, cores / 5);
      engine::OrthrusEngine eng(BenchOptions(cores), oo);
      tputs.push_back(
          RunPoint(&eng, &wl, cores, /*partitioner_n=*/oo.num_cc)
              .Throughput());
    }
    PrintRow("orthrus", tputs);
  }
  {
    std::vector<double> tputs;
    for (int cores : core_counts) {
      workload::tpcc::TpccWorkload wl(scale16());
      engine::DeadlockFreeEngine eng(BenchOptions(cores));
      tputs.push_back(RunPoint(&eng, &wl, cores).Throughput());
    }
    PrintRow("deadlock-free", tputs);
  }
  {
    std::vector<double> tputs;
    for (int cores : core_counts) {
      workload::tpcc::TpccWorkload wl(scale16());
      engine::TwoPlEngine eng(BenchOptions(cores),
                              engine::DeadlockPolicyKind::kDreadlocks);
      tputs.push_back(RunPoint(&eng, &wl, cores).Throughput());
    }
    PrintRow("2pl-dreadlocks", tputs);
  }
  return 0;
}
