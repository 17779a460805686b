#include "hal/native_platform.h"

#include <chrono>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace orthrus::hal {

namespace {

using SteadyClock = std::chrono::steady_clock;

// The raw clock: the TSC on x86-64, steady_clock nanoseconds elsewhere. The
// TSC ticks at a constant rate and in step across cores on every x86-64
// part with an invariant TSC (constant_tsc/nonstop_tsc), which is what
// this platform assumes; rdtsc costs about half a steady_clock read.
// Unlike steady_clock's TSC read, rdtsc is not ordered after earlier loads,
// so a span ending in a cache miss can close before the miss completes and
// the next span pays for it. An ordered read (rdtscp) cost 4-7% of native
// throughput on the hot-set KV workloads, so spans accept that skew.
std::uint64_t RawClock() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
#endif
}

#if defined(__x86_64__)
// One (steady_clock, TSC) reading pair. The TSC is read on both sides of
// the steady_clock read and the pair with the narrowest bracket of three
// is kept, so a preemption between the two reads cannot skew it.
struct ClockPair {
  SteadyClock::time_point steady;
  double tsc;
};

ClockPair ReadClockPair() {
  ClockPair best{};
  std::uint64_t best_width = ~0ull;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = __rdtsc();
    const SteadyClock::time_point steady = SteadyClock::now();
    const std::uint64_t after = __rdtsc();
    if (after - before < best_width) {
      best_width = after - before;
      best = ClockPair{steady, 0.5 * static_cast<double>(before + after)};
    }
  }
  return best;
}
#endif

// Raw clock ticks per second. The TSC rate is measured against
// steady_clock over a 10 ms sleep, once per process; the error is the
// bracket width over 10 ms, a few parts per million.
double MeasureRawRate() {
#if defined(__x86_64__)
  const ClockPair a = ReadClockPair();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const ClockPair b = ReadClockPair();
  const double seconds =
      std::chrono::duration<double>(b.steady - a.steady).count();
  return (b.tsc - a.tsc) / seconds;
#else
  return 1e9;
#endif
}

double RawRate() {
  static const double rate = MeasureRawRate();
  return rate;
}

}  // namespace

NativePlatform::NativePlatform(int num_cores)
    : num_cores_(num_cores),
      cores_(num_cores),
      cycles_per_second_(RawRate()),
      origin_(RawClock()) {
  ORTHRUS_CHECK(num_cores >= 1);
  for (int i = 0; i < num_cores; ++i) {
    cores_[i].context.platform = this;
    cores_[i].context.core_id = i;
    cores_[i].context.jitter_state = 0x9E3779B97F4A7C15ull * (i + 1) + 1;
  }
}

NativePlatform::~NativePlatform() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void NativePlatform::Spawn(int core_id, std::function<void()> fn) {
  ORTHRUS_CHECK(core_id >= 0 && core_id < num_cores_);
  ORTHRUS_CHECK_MSG(!cores_[core_id].spawned, "core spawned twice");
  ORTHRUS_CHECK_MSG(!ran_, "Spawn after Run");
  cores_[core_id].fn = std::move(fn);
  cores_[core_id].spawned = true;
}

void NativePlatform::Run() {
  ORTHRUS_CHECK_MSG(!ran_, "Run called twice");
  ran_ = true;
  threads_.reserve(num_cores_);
  for (int i = 0; i < num_cores_; ++i) {
    if (!cores_[i].spawned) continue;
    NativeCore* core = &cores_[i];
    threads_.emplace_back([core]() {
      SetCurrentCore(&core->context);
      core->fn();
      SetCurrentCore(nullptr);
    });
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

Cycles NativePlatform::Now() { return RawClock() - origin_; }

void NativePlatform::CpuRelax() {
  // On an oversubscribed host (including the 1-core CI box) a pure PAUSE
  // spin can starve the lock holder; yielding keeps spin loops live-lock
  // free at the cost of some latency, which tests do not depend on.
  std::this_thread::yield();
}

}  // namespace orthrus::hal
