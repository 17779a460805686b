// Deterministic happens-before race detection for the simulator.
//
// The simulator runs every fiber on one host thread, so ThreadSanitizer sees
// nothing: a sim-only protocol (equivalence digests, WAL fragment passing
// and epoch sealing) can ship a missing release/acquire edge and
// never crash until the same code runs natively. This detector closes that
// gap with a FastTrack-style vector-clock analysis driven from the
// simulator's own event stream:
//
//  * every modeled atomic access (hal::Atomic -> SimPlatform::OnAtomicAccess)
//    is a synchronization operation: loads acquire the line's clock, stores
//    release the accessor's clock into it, RMWs do both;
//  * plain payload accesses (record rows, ring payload words, TCB fields,
//    WAL fragment buffers) are declared with hal::RaceCheck(ptr, bytes,
//    is_write, label) and checked against per-8-byte-granule shadow state.
//
// Two plain accesses to the same granule from different cores, at least one
// a write, with no happens-before path through modeled atomics, is a race —
// reported with both core ids, both labels, and the exact virtual
// timestamps, reproducibly (the sim schedule is deterministic, so the first
// report is always the same one).
//
// The detector never consumes virtual cycles and never yields: turning it on
// cannot perturb the schedule, so a race_detect=on run sees the exact event
// order of the equivalent race_detect=off run.
//
// Layering: this library sits *below* the HAL (orthrus_hal links
// orthrus_analysis) and deliberately knows nothing about platforms or
// fibers; the simulator maps its MemOps onto SyncOp and passes core ids and
// virtual times in.
#ifndef ORTHRUS_ANALYSIS_RACE_DETECTOR_H_
#define ORTHRUS_ANALYSIS_RACE_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace orthrus::analysis {

// What a modeled atomic access means for the happens-before order.
enum class SyncOp {
  kAcquire,  // atomic load: join the sync var's clock into the core's
  kRelease,  // atomic store: join the core's clock into the sync var's
  kAcqRel,   // atomic RMW: both
};

// One detected race: an unordered pair of conflicting plain accesses.
// `prior` is the access that was already recorded in the shadow state,
// `current` the one that detected the conflict; `current.time` is the exact
// virtual timestamp the race became visible.
struct RaceAccess {
  int core = -1;
  bool is_write = false;
  const char* label = nullptr;     // site label passed to hal::RaceCheck
  std::uint64_t time = 0;          // virtual cycles (core-local clock)
};

struct RaceReport {
  std::uintptr_t addr = 0;         // first byte of the racy 8-byte granule
  RaceAccess prior;
  RaceAccess current;

  std::string ToString() const;
};

class RaceDetector {
 public:
  explicit RaceDetector(int num_cores, std::size_t max_reports = 64);

  // A modeled atomic access to the sync variable identified by `var` (the
  // simulator uses the LineMeta address). Establishes happens-before edges;
  // never reports.
  void OnSyncAccess(const void* var, SyncOp op, int core);

  // A plain (non-atomic) access to [addr, addr+bytes), checked at 8-byte
  // granularity against the shadow state. `time` is the accessor's current
  // virtual clock, used only for reporting.
  void OnPlainAccess(const void* addr, std::size_t bytes, bool is_write,
                     const char* label, int core, std::uint64_t time);

  // Forget all shadow state for [addr, addr+bytes). For memory whose
  // lifetime ends and is legitimately recycled outside the modeled
  // synchronization order (none of the in-tree wiring needs this; seeded
  // tests reuse it to isolate scenarios).
  void ForgetRange(const void* addr, std::size_t bytes);

  const std::vector<RaceReport>& reports() const { return reports_; }
  std::uint64_t races_observed() const { return races_observed_; }

  // When set, the first detected race prints its report and aborts. Used by
  // the CI race arm: any race in a suite that is supposed to be clean fails
  // loudly at the exact virtual timestamp instead of after the run.
  void set_report_fatal(bool fatal) { report_fatal_ = fatal; }

 private:
  using VectorClock = std::vector<std::uint64_t>;

  struct Shadow {
    RaceAccess write;                // last write (core < 0: none yet)
    std::uint64_t write_clock = 0;   // writer's epoch at the write
    // Reads since the last write, at most one per core.
    std::vector<RaceAccess> reads;
    std::vector<std::uint64_t> read_clocks;  // parallel to `reads`
  };

  static void Join(VectorClock& into, const VectorClock& from);
  void Report(std::uintptr_t granule, const RaceAccess& prior,
              const RaceAccess& current);

  int num_cores_;
  std::size_t max_reports_;
  bool report_fatal_ = false;
  std::uint64_t races_observed_ = 0;
  std::vector<VectorClock> core_vc_;             // per-core clocks
  std::unordered_map<const void*, VectorClock> sync_;   // per sync var
  std::unordered_map<std::uintptr_t, Shadow> shadow_;   // per 8B granule
  std::vector<RaceReport> reports_;
};

}  // namespace orthrus::analysis

#endif  // ORTHRUS_ANALYSIS_RACE_DETECTOR_H_
