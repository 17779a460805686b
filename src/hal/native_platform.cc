#include "hal/native_platform.h"

namespace orthrus::hal {

NativePlatform::NativePlatform(int num_cores)
    : num_cores_(num_cores),
      cores_(num_cores),
      epoch_(std::chrono::steady_clock::now()) {
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

Cycles NativePlatform::Now() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  return static_cast<Cycles>(static_cast<double>(ns) * kGhz);
}

void NativePlatform::ConsumeCycles(Cycles /*n*/) {
  // Real computation happens for real on this platform; declared cycles are
  // a modeling concept and cost nothing here.
}

void NativePlatform::CpuRelax() {
  // On an oversubscribed host (including the 1-core CI box) a pure PAUSE
  // spin can starve the lock holder; yielding keeps spin loops live-lock
  // free at the cost of some latency, which tests do not depend on.
  std::this_thread::yield();
}

void NativePlatform::OnAtomicAccess(LineMeta* /*line*/, MemOp /*op*/) {
  // Real coherence hardware does the modeling here.
}

}  // namespace orthrus::hal
