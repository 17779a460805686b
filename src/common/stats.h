// Per-worker execution statistics and the CPU-time breakdown used by the
// paper's Figure 10 (Execution / Locking / Waiting), and the clock cursor
// that charges a thread's time to that breakdown.
#ifndef ORTHRUS_COMMON_STATS_H_
#define ORTHRUS_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "hal/hal.h"

namespace orthrus {

// What a worker core is spending its cycles on. Matches the categories in
// the paper's execution-time breakdown (Section 4.4.3).
enum class TimeCategory : int {
  kExecution = 0,  // running transaction logic
  kLocking = 1,    // lock manager work: acquire/release, deadlock handling,
                   // message construction and queue operations
  kWaiting = 2,    // blocked on a lock, or idle-polling with no progress
  kCount = 3,
};

// Statistics accumulated by one worker core. Plain (non-atomic) fields: each
// worker owns its own instance and the harness aggregates after Join().
struct WorkerStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;        // aborts from deadlock handling
  std::uint64_t backoffs = 0;       // restart backoffs taken after aborts
  std::uint64_t ollp_aborts = 0;    // aborts from stale OLLP estimates
  std::uint64_t deadlocks = 0;      // detected deadlock cycles (graph-based)
  std::uint64_t lock_waits = 0;     // lock requests that had to wait
  std::uint64_t messages_sent = 0;  // ORTHRUS message-passing traffic
  std::uint64_t send_stalls = 0;    // blocking queue sends that hit a full ring
  std::uint64_t send_stall_cycles = 0;  // cycles those sends busy-waited
  std::uint64_t wal_fragments = 0;  // redo-log fragments emitted (wal)
  std::uint64_t wal_wait_cycles = 0;  // cycles waiting on group commit
  // ORTHRUS CC loop: drains that delivered at least one message, and the
  // messages they delivered (occupancy = msgs / batches = CC inbox depth
  // per drain).
  std::uint64_t cc_batches = 0;
  std::uint64_t cc_batch_msgs = 0;
  // Most locks live at once in any one ORTHRUS CC lock table. Merged by
  // max, not summed.
  std::uint64_t cc_live_locks_max = 0;
  std::uint64_t cycles[static_cast<int>(TimeCategory::kCount)] = {0, 0, 0};
  Histogram txn_latency;  // commit latency in cycles

  void Add(TimeCategory cat, std::uint64_t c) {
    cycles[static_cast<int>(cat)] += c;
  }
  std::uint64_t Get(TimeCategory cat) const {
    return cycles[static_cast<int>(cat)];
  }

  void Merge(const WorkerStats& other);
};

// One thread's clock cursor: the last clock reading and the stats its spans
// are charged to. Each Mark closes the span since the previous reading, so
// a thread that reads the clock only through Mark charges every cycle
// exactly once and its three categories sum to its run. A reading at a
// stage boundary serves both stages: it ends one span, starts the next and
// is returned for the caller's own use (a gate, a latency stamp). It reads
// through hal::Now, so only code above the hal layer may use it.
class SpanClock {
 public:
  // `start` is the reading the first span begins at, normally the worker's
  // begin reading (WorkerClock::start).
  SpanClock(WorkerStats* stats, hal::Cycles start)
      : stats_(stats), last_(start) {}

  // Reads the clock once, charges the time since the previous reading to
  // `cat`, stores the new reading and returns it.
  hal::Cycles Mark(TimeCategory cat) {
    const hal::Cycles now = hal::Now();
    stats_->Add(cat, now - last_);
    last_ = now;
    return now;
  }

  // Charges `cycles` of the open span to `cat` without reading the clock:
  // work whose length the caller already knows (the cycles
  // hal::ConsumeCycles reports). The cursor moves past them, so the next
  // Mark charges only the rest of the span.
  void Charge(TimeCategory cat, hal::Cycles cycles) {
    stats_->Add(cat, cycles);
    last_ += cycles;
  }

  hal::Cycles last() const { return last_; }

 private:
  WorkerStats* stats_;
  hal::Cycles last_;
};

// Aggregated run result produced by the benchmark harness.
struct RunResult {
  WorkerStats total;                // sum over all workers
  std::vector<WorkerStats> per_worker;
  double elapsed_seconds = 0;       // virtual (sim) or wall (native) seconds
  // The platform's clock rate: converts the cycle counts above (latency
  // histograms, time categories) to seconds.
  double cycles_per_second = 0;
  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(total.committed) /
                                     elapsed_seconds
                               : 0.0;
  }
  double AbortRate() const {
    const double attempts =
        static_cast<double>(total.committed + total.aborted);
    return attempts > 0 ? static_cast<double>(total.aborted) / attempts : 0.0;
  }
  // Fraction of total worker cycles in the given category, in [0,1].
  double TimeFraction(TimeCategory cat) const;

  std::string Summary() const;
};

}  // namespace orthrus

#endif  // ORTHRUS_COMMON_STATS_H_
