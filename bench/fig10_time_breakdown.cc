// Figure 10: breakdown of CPU time on execution threads into Execution /
// Locking / Waiting, TPC-C with 80 threads, under low contention (128
// warehouses) and high contention (16 warehouses).
//
// Expected shape: under high contention every system waits most of the
// time, but ORTHRUS's execution threads spend a several-fold larger
// fraction doing useful work (paper: 18% vs 7.2% vs 3.7%) despite using
// only 64 of the 80 threads for execution.
#include <cstdio>
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;

  auto scale_for = [](int w) {
    workload::tpcc::TpccScale s;
    s.warehouses = w;
    s.customers_per_district = 150;
    s.items = 2000;
    s.order_ring_capacity = 16384;
    return s;
  };

  auto print_breakdown = [](const char* label, const WorkerStats& total) {
    std::uint64_t sum = 0;
    for (int i = 0; i < static_cast<int>(TimeCategory::kCount); ++i) {
      sum += total.cycles[i];
    }
    if (sum == 0) sum = 1;
    std::printf("%-22s exec %5.1f%%   locking %5.1f%%   waiting %5.1f%%\n",
                label,
                100.0 * total.Get(TimeCategory::kExecution) / sum,
                100.0 * total.Get(TimeCategory::kLocking) / sum,
                100.0 * total.Get(TimeCategory::kWaiting) / sum);
  };

  for (int w : {128, 16}) {
    std::printf("\n=== Figure 10: execution-thread CPU time, %d warehouses "
                "(%s contention) ===\n",
                w, w == 128 ? "low" : "high");
    {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      RunResult r = RunPoint(&eng, &wl, kCores, kCc);
      // Execution threads only (per_worker[kCc..]) — CC threads are the
      // delegated lock manager, like the paper's measurement.
      WorkerStats exec_total;
      for (int i = kCc; i < kCores; ++i) exec_total.Merge(r.per_worker[i]);
      print_breakdown("orthrus (64 exec)", exec_total);
      // CC inbox depth per drain, over the CC workers [0, kCc).
      WorkerStats cc_total;
      for (int i = 0; i < kCc; ++i) cc_total.Merge(r.per_worker[i]);
      const double occupancy =
          cc_total.cc_batches == 0
              ? 0.0
              : static_cast<double>(cc_total.cc_batch_msgs) /
                    static_cast<double>(cc_total.cc_batches);
      std::printf("%-22s cc_batch_occupancy %.2f msgs/drain\n", "",
                  occupancy);
    }
    {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::DeadlockFreeEngine eng(BenchOptions(kCores));
      RunResult r = RunPoint(&eng, &wl, kCores);
      print_breakdown("deadlock-free", r.total);
    }
    {
      workload::tpcc::TpccWorkload wl(scale_for(w));
      engine::TwoPlEngine eng(BenchOptions(kCores),
                              engine::DeadlockPolicyKind::kDreadlocks);
      RunResult r = RunPoint(&eng, &wl, kCores);
      print_breakdown("2pl-dreadlocks", r.total);
    }
  }
  std::printf("(paper, high contention: ORTHRUS 18%%, deadlock-free 7.2%%, "
              "2PL 3.7%% execution time)\n");
  return 0;
}
