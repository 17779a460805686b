// Real-hardware platform: logical cores are std::threads, atomics are plain
// std::atomics. Time is the x86-64 time-stamp counter (TSC), counted from
// platform construction and converted to seconds with a rate calibrated
// once per process against steady_clock; other architectures read
// steady_clock nanoseconds. Modeled costs are never charged here: cores
// leave CoreContext::simulated unset, so ConsumeCycles and the coherence
// hooks stop at one inline branch. Used by the test suite to validate
// engine thread-safety with true concurrency, and by bench/oltp for native
// measurements. Threads are left to the OS scheduler.
#ifndef ORTHRUS_HAL_NATIVE_PLATFORM_H_
#define ORTHRUS_HAL_NATIVE_PLATFORM_H_

#include <functional>
#include <thread>
#include <vector>

#include "hal/hal.h"

namespace orthrus::hal {

class NativePlatform final : public Platform {
 public:
  explicit NativePlatform(int num_cores);
  ~NativePlatform() override;

  int num_cores() const override { return num_cores_; }
  void Spawn(int core_id, std::function<void()> fn) override;
  void Run() override;
  double CyclesPerSecond() const override { return cycles_per_second_; }

  // Clock ticks since construction.
  Cycles Now() override;
  void CpuRelax() override;

 private:
  struct NativeCore {
    std::function<void()> fn;
    CoreContext context;
    bool spawned = false;
  };

  int num_cores_;
  std::vector<NativeCore> cores_;
  std::vector<std::thread> threads_;
  double cycles_per_second_;
  Cycles origin_;  // raw clock reading at construction
  bool ran_ = false;
};

}  // namespace orthrus::hal

#endif  // ORTHRUS_HAL_NATIVE_PLATFORM_H_
