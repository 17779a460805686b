// Figure 12 (appendix): YCSB 10-RMW transaction scalability under low and
// high contention — the combined cost of conflated functionality plus
// deadlock handling.
//
// Expected shapes: (a) low contention — same ordering as the read-only
// experiment with lower absolute numbers; (b) high contention — 2PL w/
// wait-die peaks by ~20 cores and declines (handling overhead + aborts);
// deadlock-free plateaus; ORTHRUS single > dual > random, all above the
// locking baselines (paper: 4.65x / 3.35x / 2.3x over 2PL; +90% / +38%
// over deadlock-free for single / dual).
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  JsonFigure("fig12_ycsb_rmw");
  const std::vector<int> core_counts = CoreSweep({10, 20, 40, 60, 80});
  std::vector<std::string> xs;
  for (int c : core_counts) xs.push_back(std::to_string(c));

  for (bool high : {false, true}) {
    const std::string tag = high ? "/high" : "/low";
    PrintHeader(std::string("Figure 12: YCSB 10RMW scalability, ") +
                    (high ? "high" : "low") + " contention",
                "tput (M/s) @cores", xs);
    const auto contention = high ? workload::YcsbContention::kHigh
                                 : workload::YcsbContention::kLow;

    auto ycsb = [&](workload::YcsbPlacement placement, int n_cc) {
      workload::YcsbSpec spec;
      spec.contention = contention;
      spec.op = workload::YcsbOp::kRmw;
      spec.placement = placement;
      spec.num_partitions = n_cc;
      spec.num_records = KvRecords();
      spec.row_bytes = KvRowBytes();
      return spec;
    };

    auto orthrus_row = [&](workload::YcsbPlacement placement,
                           const std::string& label) {
      std::vector<double> tputs;
      for (int cores : core_counts) {
        const int n_cc = std::max(2, cores / 5);
        auto wl = MakeYcsbWorkload(ycsb(placement, n_cc));
        engine::OrthrusOptions oo;
        oo.num_cc = n_cc;
        engine::OrthrusEngine eng(BenchOptions(cores), oo);
        PointResult r = RunPoint(&eng, wl.get(), cores);
        JsonPoint(label + tag, std::to_string(cores), r);
        tputs.push_back(r.Throughput());
      }
      PrintRow(label, tputs);
    };

    orthrus_row(workload::YcsbPlacement::kSingle, "orthrus(single)");
    orthrus_row(workload::YcsbPlacement::kDual, "orthrus(dual)");
    orthrus_row(workload::YcsbPlacement::kRandom, "orthrus(random)");

    {
      std::vector<double> tputs;
      for (int cores : core_counts) {
        auto wl = MakeYcsbWorkload(ycsb(workload::YcsbPlacement::kRandom, 1));
        engine::DeadlockFreeEngine eng(BenchOptions(cores));
        PointResult r = RunPoint(&eng, wl.get(), cores);
        JsonPoint("deadlock-free" + tag, std::to_string(cores), r);
        tputs.push_back(r.Throughput());
      }
      PrintRow("deadlock-free", tputs);
    }
    {
      std::vector<double> tputs;
      for (int cores : core_counts) {
        auto wl = MakeYcsbWorkload(ycsb(workload::YcsbPlacement::kRandom, 1));
        engine::TwoPlEngine eng(BenchOptions(cores),
                                engine::DeadlockPolicyKind::kWaitDie);
        PointResult r = RunPoint(&eng, wl.get(), cores);
        JsonPoint("2pl-waitdie" + tag, std::to_string(cores), r);
        tputs.push_back(r.Throughput());
      }
      PrintRow("2pl-waitdie", tputs);
    }
  }
  return 0;
}
