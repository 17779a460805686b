#include "hal/sim_platform.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "analysis/race_detector.h"

namespace orthrus::hal {

SimPlatform::SimPlatform(int num_cores, SimConfig config)
    : num_cores_(num_cores), config_(config), cores_(num_cores) {
  ORTHRUS_CHECK(num_cores >= 1 && num_cores <= Bitset128::kBits);
  stats_.clock_reads.assign(static_cast<std::size_t>(num_cores), 0);
  if (config_.race_detect) {
    detector_ = std::make_unique<analysis::RaceDetector>(num_cores);
    detector_->set_report_fatal(config_.race_report_fatal);
  }
  for (int i = 0; i < num_cores; ++i) {
    cores_[i].context.platform = this;
    cores_[i].context.core_id = i;
    cores_[i].context.jitter_state = 0x9E3779B97F4A7C15ull * (i + 1) + 1;
    cores_[i].context.race_check = config_.race_detect;
    cores_[i].context.simulated = true;
  }
}

SimPlatform::~SimPlatform() = default;

void SimPlatform::Spawn(int core_id, std::function<void()> fn) {
  ORTHRUS_CHECK(core_id >= 0 && core_id < num_cores_);
  ORTHRUS_CHECK_MSG(!cores_[core_id].spawned, "core spawned twice");
  ORTHRUS_CHECK_MSG(!ran_, "Spawn after Run");
  cores_[core_id].fiber = std::make_unique<Fiber>(
      std::move(fn), config_.fiber_stack_bytes);
  cores_[core_id].spawned = true;
  ready_.push(Event{0, seq_++, core_id});
}

void SimPlatform::Run() {
  ORTHRUS_CHECK_MSG(!ran_, "Run called twice");
  ran_ = true;
  // Diagnostics: ORTHRUS_SIM_DEBUG=1 prints progress every 20M events.
  const bool debug = std::getenv("ORTHRUS_SIM_DEBUG") != nullptr;
  std::uint64_t next_report = 20'000'000;
  while (!ready_.empty()) {
    if (debug && stats_.scheduling_events >= next_report) {
      std::fprintf(stderr, "[sim] events=%lluM clock=%lluK rmws=%lluM\n",
                   (unsigned long long)(stats_.scheduling_events / 1000000),
                   (unsigned long long)(clock_ / 1000),
                   (unsigned long long)(stats_.atomic_rmws / 1000000));
      next_report += 20'000'000;
    }
    const Event ev = ready_.top();
    ready_.pop();
    SimCore& core = cores_[ev.core];
    ORTHRUS_DCHECK(ev.time >= clock_);
    clock_ = ev.time;
    current_ = ev.core;
    SetCurrentCore(&core.context);
    stats_.scheduling_events++;
    core.fiber->SwitchIn(&sched_sp_);
    SetCurrentCore(nullptr);
    current_ = -1;
    // A finished fiber simply does not re-enqueue itself.
  }
  // All cores ran to completion. Settle the global clock to the latest
  // completion time (cycle charges after a core's final yield would
  // otherwise be invisible to it).
  for (int i = 0; i < num_cores_; ++i) {
    if (cores_[i].spawned) {
      ORTHRUS_CHECK_MSG(cores_[i].fiber->done(),
                        "core suspended forever (missing CpuRelax in a spin "
                        "loop, or deadlock)");
      clock_ = std::max(clock_, cores_[i].local_now);
    }
  }
}

Cycles SimPlatform::Now() {
  ORTHRUS_DCHECK(current_ >= 0);
  stats_.clock_reads[static_cast<std::size_t>(current_)]++;
  return cores_[current_].local_now;
}

void SimPlatform::ConsumeCycles(Cycles n) {
  ORTHRUS_DCHECK(current_ >= 0);
  cores_[current_].local_now += n;
}

void SimPlatform::Yield() {
  const int core_id = current_;
  SimCore& core = cores_[core_id];
  ready_.push(Event{core.local_now, seq_++, core_id});
  Fiber::SwitchOut(core.fiber->mutable_sp(), sched_sp_);
  // Resumed: the scheduler has re-installed our CoreContext.
  ORTHRUS_DCHECK(current_ == core_id);
}

void SimPlatform::CpuRelax() {
  ORTHRUS_DCHECK(current_ >= 0);
  cores_[current_].local_now += config_.relax_cycles;
  Yield();
}

void SimPlatform::OnAtomicAccess(LineMeta* line, MemOp op) {
  ORTHRUS_DCHECK(current_ >= 0);
  // Reorder: the access must be applied in virtual-time order relative to
  // other cores' accesses, so suspend until this core is the earliest.
  Yield();

  SimCore& core = cores_[current_];
  const int me = current_;
  const Cycles t = core.local_now;

  // Happens-before bookkeeping (race_detect only): modeled atomics with
  // acquire/release semantics are the sync edges plain-payload accesses are
  // checked against. mp ring payload lines opt out (LineMeta::sync_var) —
  // their words are relaxed, ordered only by the queue indices. No cycles
  // are charged: detection must not move the schedule.
  if (detector_ != nullptr && line->sync_var) {
    detector_->OnSyncAccess(
        line,
        op == MemOp::kLoad    ? analysis::SyncOp::kAcquire
        : op == MemOp::kStore ? analysis::SyncOp::kRelease
                              : analysis::SyncOp::kAcqRel,
        me);
  }

  const bool exclusive_here = line->owner == me && line->readers.Test(me) &&
                              !line->readers.AnyOtherThan(me);
  // Every line transfer flows through the shared coherence fabric, which
  // has finite aggregate capacity. Returns the queueing delay suffered.
  auto charge_interconnect = [&](Cycles start) -> Cycles {
    const Cycles begin = std::max(start, interconnect_busy_until_);
    interconnect_busy_until_ = begin + config_.interconnect_service_cycles;
    stats_.interconnect_stall_cycles += begin - start;
    return begin - start;
  };

  // Cost of pulling the line to this core.
  auto transfer_cost = [&](Cycles start) -> Cycles {
    stats_.remote_transfers++;
    return config_.remote_transfer_cycles + charge_interconnect(start);
  };

  switch (op) {
    case MemOp::kRmw: {
      stats_.atomic_rmws++;
      // Atomic RMWs must own the line for their full service time; pending
      // operations on the line serialize behind each other. This is the
      // mechanism behind contended-latch collapse (Figure 1).
      const Cycles start = std::max(t, line->busy_until);
      stats_.rmw_stall_cycles += start - t;
      Cycles cost;
      if (exclusive_here) {
        cost = config_.l1_hit_cycles;
      } else {
        int sharers = line->readers.Count();
        if (line->readers.Test(me)) sharers--;
        cost = transfer_cost(start) +
               config_.invalidate_per_sharer * static_cast<Cycles>(sharers);
      }
      line->busy_until = start + config_.rmw_service_cycles;
      line->owner = static_cast<std::int16_t>(me);
      line->readers.Reset();
      line->readers.Set(me);
      core.local_now = start + cost;
      break;
    }
    case MemOp::kStore: {
      stats_.atomic_stores++;
      // Plain (release) stores drain through the store buffer: the core
      // does not stall on the line transfer, but the line is still briefly
      // occupied by the resulting coherence transaction and sharers lose
      // their copies. The transfer still consumes fabric capacity (charged
      // to the line, not the core).
      Cycles fabric_delay = 0;
      if (!exclusive_here) {
        stats_.remote_transfers++;
        fabric_delay = charge_interconnect(t);
      }
      line->busy_until = std::max(t, line->busy_until) + fabric_delay +
                         config_.store_service_cycles;
      line->owner = static_cast<std::int16_t>(me);
      line->readers.Reset();
      line->readers.Set(me);
      core.local_now =
          t + (exclusive_here ? config_.l1_hit_cycles
                              : config_.store_buffer_cycles);
      break;
    }
    case MemOp::kLoad: {
      stats_.atomic_reads++;
      // Reads wait for in-flight line occupancy but do not extend it.
      const Cycles start = std::max(t, line->busy_until);
      Cycles cost;
      if (line->readers.Test(me)) {
        cost = config_.l1_hit_cycles;
      } else {
        cost = transfer_cost(start);
        line->readers.Set(me);
      }
      core.local_now = start + cost;
      break;
    }
  }
}

void SimPlatform::OnStorageSync(StorageMeta* device, std::uint64_t bytes) {
  ORTHRUS_DCHECK(current_ >= 0);
  // Syncs are ordering points like atomic accesses: apply in virtual-time
  // order so device occupancy is charged deterministically.
  Yield();
  SimCore& core = cores_[current_];
  const Cycles t = core.local_now;
  // The device finishes in-flight syncs first (fsyncs on one log device
  // serialize), then streams this batch out.
  const Cycles start = std::max(t, device->busy_until);
  const Cycles lines = (static_cast<Cycles>(bytes) + 63) / 64;
  const Cycles service = config_.storage_sync_base_cycles +
                         config_.storage_sync_line_cycles * lines;
  device->busy_until = start + service;
  stats_.storage_syncs++;
  stats_.storage_sync_bytes += bytes;
  stats_.storage_stall_cycles += start - t;
  // The caller blocks until its data is stable — that is the whole point of
  // a sync, and what group commit amortizes.
  core.local_now = start + service;
}

void SimPlatform::OnPlainAccess(const void* addr, std::size_t bytes,
                                bool is_write, const char* label) {
  // Not a scheduling point and charges nothing: plain accesses are already
  // paid for via ConsumeCycles by the callers, and the detector must see
  // the same event order whether it is on or off. Reached only from a
  // running core (hal::RaceCheck gates on CoreContext::race_check, which is
  // only set when the detector exists).
  ORTHRUS_DCHECK(current_ >= 0 && detector_ != nullptr);
  detector_->OnPlainAccess(addr, bytes, is_write, label, current_,
                           cores_[current_].local_now);
}

}  // namespace orthrus::hal
