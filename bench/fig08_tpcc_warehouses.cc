// Figure 8: TPC-C (NewOrder + Payment, 50/50) throughput while varying the
// number of warehouses, 80 cores. Contention decreases left to right.
//
// Expected shape: at few warehouses ORTHRUS wins by a wide margin (paper:
// up to an order of magnitude over 2PL w/ dreadlocks); as warehouses grow
// the gap narrows (paper: 1.3x over deadlock-free and 1.5x over 2PL at 128
// warehouses).
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;
  const std::vector<int> warehouses = {4, 8, 16, 32, 64, 96, 128};
  std::vector<std::string> xs;
  for (int w : warehouses) xs.push_back(std::to_string(w));
  PrintHeader("Figure 8: TPC-C NewOrder+Payment vs warehouses (80 cores)",
              "tput (M/s) @W", xs);

  auto scale_for = [](int w) {
    workload::tpcc::TpccScale s;
    s.warehouses = w;
    s.customers_per_district = 150;
    s.items = 2000;
    s.order_ring_capacity = 16384;
    return s;
  };

  {
    std::vector<double> tputs;
    for (int w : warehouses) {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      tputs.push_back(
          RunPoint(&eng, &wl, kCores, /*partitioner_n=*/kCc).Throughput());
    }
    PrintRow("orthrus", tputs);
  }
  {
    std::vector<double> tputs;
    for (int w : warehouses) {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      tputs.push_back(RunPoint(&eng, &wl, kCores).Throughput());
    }
    PrintRow("deadlock-free", tputs);
  }
  {
    std::vector<double> tputs;
    for (int w : warehouses) {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::TwoPlEngine eng(BenchOptions(kCores),
                              engine::DeadlockPolicyKind::kDreadlocks);
      tputs.push_back(RunPoint(&eng, &wl, kCores).Throughput());
    }
    PrintRow("2pl-dreadlocks", tputs);
  }
  return 0;
}
