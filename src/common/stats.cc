#include "common/stats.h"

#include <cstdio>

namespace orthrus {

void WorkerStats::Merge(const WorkerStats& other) {
  committed += other.committed;
  aborted += other.aborted;
  backoffs += other.backoffs;
  ollp_aborts += other.ollp_aborts;
  deadlocks += other.deadlocks;
  lock_waits += other.lock_waits;
  messages_sent += other.messages_sent;
  send_stalls += other.send_stalls;
  send_stall_cycles += other.send_stall_cycles;
  wal_fragments += other.wal_fragments;
  wal_wait_cycles += other.wal_wait_cycles;
  cc_batches += other.cc_batches;
  cc_batch_msgs += other.cc_batch_msgs;
  if (other.cc_live_locks_max > cc_live_locks_max) {
    cc_live_locks_max = other.cc_live_locks_max;
  }
  for (int i = 0; i < static_cast<int>(TimeCategory::kCount); ++i) {
    cycles[i] += other.cycles[i];
  }
  txn_latency.Merge(other.txn_latency);
}

double RunResult::TimeFraction(TimeCategory cat) const {
  std::uint64_t sum = 0;
  for (int i = 0; i < static_cast<int>(TimeCategory::kCount); ++i) {
    sum += total.cycles[i];
  }
  if (sum == 0) return 0.0;
  return static_cast<double>(total.Get(cat)) / static_cast<double>(sum);
}

std::string RunResult::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "committed=%llu aborted=%llu tput=%.0f txns/s abort_rate=%.3f "
      "exec=%.1f%% lock=%.1f%% wait=%.1f%%",
      static_cast<unsigned long long>(total.committed),
      static_cast<unsigned long long>(total.aborted), Throughput(),
      AbortRate(), 100.0 * TimeFraction(TimeCategory::kExecution),
      100.0 * TimeFraction(TimeCategory::kLocking),
      100.0 * TimeFraction(TimeCategory::kWaiting));
  return buf;
}

}  // namespace orthrus
