// Ablation: batched message transport on the CC<->exec hot path. Every
// lock acquire/grant/release is a word-sized message on a per-pair SPSC
// queue (Section 3.1), published by its sender the moment it is produced.
// The receive side is batched (`batched_mp`): the drain pops up to a cache
// line of messages per head publication, while the unbatched baseline
// publishes the consumer index once per message.
//
// Note what is and is not ablated: every arm uses the line-packed payload
// layout (one modeled coherence line per 8 messages), so this measures
// index-publication granularity only, not the packing itself.
//
// Expected shape: the receive-side gap grows with message pressure — more
// CC threads per transaction means more messages per commit, and bursts at
// each CC thread deepen, giving batching more to amortize.
#include <vector>

#include "bench/common/bench_harness.h"

int main() {
  using namespace orthrus;
  using namespace orthrus::bench;

  const int kCores = 80;
  const int kCc = 16;
  const std::vector<int> parts_per_txn = {1, 2, 4, 8};
  std::vector<std::string> xs;
  for (int p : parts_per_txn) xs.push_back(std::to_string(p));
  PrintHeader("Ablation: batched queue transport, 80 cores",
              "tput (M/s) @parts", xs);

  struct Arm {
    const char* label;
    bool batched_mp;
    bool combined_grants = false;
    bool adaptive_drain_batch = false;
  };
  const Arm arms[] = {
      {"batched (default)", true},
      {"unbatched (msg/pop)", false},
      // CC->exec grant combining on top of the default: packs a quantum's
      // grants per exec thread into single words (fewer words, one extra
      // quantum of grant latency).
      {"default + combined grants", true, true},
      // Burst-adaptive drain batch sizing on top of the default: each
      // receiver pops in batches sized by its measured burst depth
      // (mp::detail::BurstEstimator) instead of a full line.
      {"default + adaptive drain batch", true, false, true},
  };
  for (const Arm& arm : arms) {
    std::vector<double> tputs;
    std::string words;
    for (int k : parts_per_txn) {
      workload::KvConfig kv;
      kv.num_records = KvRecords();
      kv.row_bytes = KvRowBytes();
      kv.num_partitions = kCc;
      kv.placement = workload::KvConfig::Placement::kFixedCount;
      kv.partitions_per_txn = k;
      kv.seed = 77;
      workload::KvWorkload wl(kv);
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      oo.batched_mp = arm.batched_mp;
      oo.combined_grants = arm.combined_grants;
      oo.adaptive_drain_batch = arm.adaptive_drain_batch;
      engine::OrthrusEngine eng(BenchOptions(kCores), oo);
      RunResult r = RunPoint(&eng, &wl, kCores, 1);
      tputs.push_back(r.Throughput());
      if (arm.combined_grants && r.total.committed > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.2f",
                      static_cast<double>(r.total.messages_sent) /
                          static_cast<double>(r.total.committed));
        words += buf;
      }
    }
    PrintRow(arm.label, tputs);
    if (!words.empty()) PrintNote("  msg words/commit:" + words);
  }
  return 0;
}
