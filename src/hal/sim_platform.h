// Deterministic discrete-event multicore simulator.
//
// Logical cores are fibers scheduled in virtual-time order. Computation is
// declared with ConsumeCycles; atomic operations are the synchronization
// points at which fibers are (re)ordered and charged cache-coherence costs:
//
//  * a core re-reading a line it already shares pays an L1 hit;
//  * reading or writing a line owned elsewhere pays a transfer latency;
//  * writes invalidate sharers (cost grows with sharer count);
//  * atomic read-modify-writes additionally *occupy* the line for a service
//    interval, so contended RMWs on one line serialize no matter how many
//    cores issue them.
//
// Those three mechanisms are exactly the overheads the paper attributes to
// conflated functionality (Section 2.1): synchronization cost on contended
// meta-data, data movement between cores, and the resulting collapse of
// latch-based structures at high core counts.
#ifndef ORTHRUS_HAL_SIM_PLATFORM_H_
#define ORTHRUS_HAL_SIM_PLATFORM_H_

#include <memory>
#include <queue>
#include <vector>

#include "hal/fiber.h"
#include "hal/hal.h"

namespace orthrus::analysis {
class RaceDetector;
}  // namespace orthrus::analysis

namespace orthrus::hal {

// Cost model. Defaults approximate the paper's testbed — an 8-socket Intel
// E7-8850 at ~2 GHz, where a contended line transfer crosses the socket
// interconnect (hundreds of cycles) and atomic RMWs on one line serialize.
// Shapes (not absolute numbers) are what matter for the reproduction.
struct SimConfig {
  double ghz = 2.0;                  // cycles -> seconds conversion
  Cycles l1_hit_cycles = 2;          // access to a locally cached line
  Cycles remote_transfer_cycles = 200;  // cross-socket line transfer
  Cycles rmw_service_cycles = 120;   // line occupancy per atomic RMW
  Cycles store_buffer_cycles = 6;    // core-visible cost of a plain store
  Cycles store_service_cycles = 40;  // line occupancy per plain store
  Cycles invalidate_per_sharer = 25; // added write cost per invalidated sharer
  // Aggregate coherence-fabric capacity: every remote line transfer also
  // occupies the (shared) interconnect for this long. 6 cycles at 2 GHz
  // caps the machine at ~333M line transfers/s — the resource whose
  // saturation flattens otherwise conflict-free workloads at high core
  // counts (Figure 1).
  Cycles interconnect_service_cycles = 6;
  Cycles relax_cycles = 40;          // one CpuRelax pause
  // Stable-storage sync model (wal group commit). A sync stalls the caller
  // for a fixed device latency plus a per-line streaming cost, and occupies
  // the device for that long — concurrent syncs on one device serialize,
  // exactly how line transfers occupy the interconnect above. 16K cycles at
  // 2 GHz is ~8 µs, the right shape for a battery-backed / NVMe log device
  // (a group commit amortizes it over the whole batch).
  Cycles storage_sync_base_cycles = 16000;
  Cycles storage_sync_line_cycles = 4;   // per 64B written since last sync
  std::size_t fiber_stack_bytes = 256 * 1024;
  // Happens-before race detection (analysis::RaceDetector): modeled atomic
  // accesses become vector-clock sync edges and hal::RaceCheck'd plain
  // accesses are verified against them. Detection charges no cycles and
  // never yields, so turning it on does not perturb the schedule — and off
  // (the default) the detector is never constructed and every hook is a
  // single untaken branch: clocks and digests stay byte-identical.
  bool race_detect = false;
  // With race_detect: print and abort on the first race instead of
  // accumulating reports. The CI race arm runs the engine suites this way
  // so a regression fails at the exact virtual timestamp it happens.
  bool race_report_fatal = false;
};

// Aggregate simulator counters (for micro-benchmarks and tests).
struct SimStats {
  std::uint64_t scheduling_events = 0;
  std::uint64_t atomic_reads = 0;
  std::uint64_t atomic_stores = 0;
  std::uint64_t atomic_rmws = 0;
  std::uint64_t remote_transfers = 0;
  std::uint64_t rmw_stall_cycles = 0;  // cycles spent waiting on busy lines
  std::uint64_t interconnect_stall_cycles = 0;
  std::uint64_t storage_syncs = 0;
  std::uint64_t storage_sync_bytes = 0;
  std::uint64_t storage_stall_cycles = 0;  // queueing behind a busy device
  // Now() calls, indexed by core. Counted only: a reading costs no cycles.
  std::vector<std::uint64_t> clock_reads;
};

class SimPlatform final : public Platform {
 public:
  explicit SimPlatform(int num_cores, SimConfig config = SimConfig());
  ~SimPlatform() override;

  int num_cores() const override { return num_cores_; }
  void Spawn(int core_id, std::function<void()> fn) override;
  void Run() override;
  double CyclesPerSecond() const override { return config_.ghz * 1e9; }

  Cycles Now() override;
  void ConsumeCycles(Cycles n) override;
  void CpuRelax() override;
  void OnAtomicAccess(LineMeta* line, MemOp op) override;
  void OnStorageSync(StorageMeta* device, std::uint64_t bytes) override;
  void OnPlainAccess(const void* addr, std::size_t bytes, bool is_write,
                     const char* label) override;

  // Virtual time of the most recently dispatched event.
  Cycles GlobalClock() const { return clock_; }
  const SimStats& stats() const { return stats_; }
  const SimConfig& config() const { return config_; }

  // Race detector, or nullptr unless SimConfig::race_detect. Inspect its
  // reports() after Run() — the schedule is deterministic, so the first
  // report of a given seed/config is always the same race.
  analysis::RaceDetector* race_detector() { return detector_.get(); }

 private:
  struct SimCore {
    std::unique_ptr<Fiber> fiber;
    Cycles local_now = 0;
    CoreContext context;
    bool spawned = false;
  };

  struct Event {
    Cycles time;
    std::uint64_t seq;
    int core;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // Suspends the current fiber, re-enqueueing it at its local clock, and
  // returns once the scheduler hands control back (i.e. once every other
  // fiber with an earlier virtual time has run).
  void Yield();

  int num_cores_;
  SimConfig config_;
  std::vector<SimCore> cores_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ready_;
  std::uint64_t seq_ = 0;
  Cycles clock_ = 0;
  Cycles interconnect_busy_until_ = 0;
  int current_ = -1;     // core id of the running fiber, -1 in scheduler
  void* sched_sp_ = nullptr;
  bool ran_ = false;
  SimStats stats_;
  std::unique_ptr<analysis::RaceDetector> detector_;  // race_detect only
};

}  // namespace orthrus::hal

#endif  // ORTHRUS_HAL_SIM_PLATFORM_H_
