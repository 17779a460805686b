// Real-hardware platform: logical cores are std::threads, atomics are plain
// std::atomics, time is the wall clock. Used by the test suite to validate
// engine thread-safety with true concurrency, and by bench/oltp for native
// measurements. Threads are left to the OS scheduler.
#ifndef ORTHRUS_HAL_NATIVE_PLATFORM_H_
#define ORTHRUS_HAL_NATIVE_PLATFORM_H_

#include <chrono>
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
  bool is_simulated() const override { return false; }
  void Spawn(int core_id, std::function<void()> fn) override;
  void Run() override;
  double CyclesPerSecond() const override { return kGhz * 1e9; }

  Cycles Now() override;
  void ConsumeCycles(Cycles n) override;
  void CpuRelax() override;
  void OnAtomicAccess(LineMeta* line, MemOp op) override;

 private:
  // Nominal rate used to convert wall nanoseconds into "cycles" so that
  // engine code can use one time unit on both platforms.
  static constexpr double kGhz = 2.0;

  struct NativeCore {
    std::function<void()> fn;
    CoreContext context;
    bool spawned = false;
  };

  int num_cores_;
  std::vector<NativeCore> cores_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_;
  bool ran_ = false;
};

}  // namespace orthrus::hal

#endif  // ORTHRUS_HAL_NATIVE_PLATFORM_H_
