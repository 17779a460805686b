// Figure 11 (appendix): YCSB read-only transaction scalability under low
// and high contention. ORTHRUS in single / dual / random partition
// configurations vs Deadlock-free locking and 2PL w/ wait-die.
//
// Expected shapes: (a) low contention — single > dual ORTHRUS > the locking
// baselines > random ORTHRUS (message hops dominate when a transaction's
// locks are scattered); (b) high contention — ORTHRUS configurations keep
// scaling (contended meta-data stays core-local), while both locking
// baselines flatten and then decline past ~60 cores despite the total
// absence of logical conflicts.
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  JsonFigure("fig11_ycsb_readonly");
  const std::vector<int> core_counts = CoreSweep({10, 20, 40, 60, 80});
  std::vector<std::string> xs;
  for (int c : core_counts) xs.push_back(std::to_string(c));

  for (bool high : {false, true}) {
    const std::string tag = high ? "/high" : "/low";
    PrintHeader(std::string("Figure 11: YCSB read-only scalability, ") +
                    (high ? "high" : "low") + " contention",
                "tput (M/s) @cores", xs);
    const auto contention = high ? workload::YcsbContention::kHigh
                                 : workload::YcsbContention::kLow;

    auto orthrus_row = [&](workload::YcsbPlacement placement,
                           const std::string& label) {
      std::vector<double> tputs;
      for (int cores : core_counts) {
        workload::YcsbSpec spec;
        spec.contention = contention;
        spec.op = workload::YcsbOp::kReadOnly;
        spec.placement = placement;
        const int n_cc = std::max(2, cores / 5);
        spec.num_partitions = n_cc;
        spec.num_records = KvRecords();
        spec.row_bytes = KvRowBytes();
        auto wl = MakeYcsbWorkload(spec);
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
        workload::YcsbSpec spec;
        spec.contention = contention;
        spec.op = workload::YcsbOp::kReadOnly;
        spec.placement = workload::YcsbPlacement::kRandom;
        spec.num_partitions = 1;
        spec.num_records = KvRecords();
        spec.row_bytes = KvRowBytes();
        auto wl = MakeYcsbWorkload(spec);
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
        workload::YcsbSpec spec;
        spec.contention = contention;
        spec.op = workload::YcsbOp::kReadOnly;
        spec.placement = workload::YcsbPlacement::kRandom;
        spec.num_partitions = 1;
        spec.num_records = KvRecords();
        spec.row_bytes = KvRowBytes();
        auto wl = MakeYcsbWorkload(spec);
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
