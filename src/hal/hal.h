// Hardware abstraction layer.
//
// Every engine in this repository is written against this small API instead
// of raw std::thread / std::atomic. Two implementations exist:
//
//  * SimPlatform (sim_platform.h): a deterministic discrete-event multicore
//    simulator. Logical cores are fibers; atomic operations are charged
//    cache-coherence costs; time is virtual. This is how we reproduce the
//    paper's 80-core experiments on a 1-core host.
//  * NativePlatform (native_platform.h): real std::threads and real atomics,
//    used by the test suite to prove the engines are genuinely thread-safe
//    and by downstream users on real many-core machines.
//
// The contract engines must follow:
//  - all cross-core shared mutable state lives in hal::Atomic<T> (or
//    structures built from it, e.g. hal::SpinLock, mp::QueueMesh);
//  - spin loops call hal::CpuRelax() every iteration;
//  - modeled computation (transaction logic, record copies) is declared via
//    hal::ConsumeCycles(n);
//  - data that is protected by logical locks (record payloads) may use plain
//    memory: the engine's own locking discipline makes it race-free.
//
// Modeled costs and coherence hooks (ConsumeCycles, hal::Atomic accesses,
// mp ring line touches, storage syncs) reach the platform only on simulated
// cores (CoreContext::simulated). On a native core each is one thread-local
// read and one untaken branch: real hardware pays the real costs itself.
#ifndef ORTHRUS_HAL_HAL_H_
#define ORTHRUS_HAL_HAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/bitset128.h"
#include "common/macros.h"

namespace orthrus::hal {

using Cycles = std::uint64_t;

class Platform;

// Sink for blocking-send stall accounting (see mp::detail::WedgeSpin). A
// worker installs a pointer to its own plain counters; the queue layer adds
// to them whenever a blocking Send busy-waits on a full ring. Plain memory:
// each sink belongs to exactly one core.
struct SpinStallSink {
  std::uint64_t stalls = 0;   // blocking sends that had to wait
  Cycles stall_cycles = 0;    // virtual cycles spent waiting
};

// Identity of the logical core the calling context is running on.
struct CoreContext {
  Platform* platform = nullptr;
  int core_id = -1;
  // Per-core PCG-style state for spin-loop jitter (see FastJitter).
  std::uint64_t jitter_state = 0x9E3779B97F4A7C15ull;
  // Optional stall-accounting sink for blocking queue sends (observability
  // only: installing one never changes modeled costs).
  SpinStallSink* send_stall_sink = nullptr;
  // True only under SimConfig::race_detect: hal::RaceCheck forwards plain
  // accesses to the platform's race detector. One predictable branch when
  // off — RaceCheck costs nothing in production paths.
  bool race_check = false;
  // True only on SimPlatform cores: the modeled-cost hooks (ConsumeCycles,
  // Atomic and ring line touches, OnStorageSync) call the platform only
  // when set, so a native core never leaves the inline fast path for them.
  // mp::detail::WedgeSpin also reads it to pick its wedge bound.
  bool simulated = false;
};

namespace detail {
// Identifies the logical core for the calling OS thread. Under simulation
// all fibers share one OS thread and the scheduler rewrites this on every
// fiber switch; under the native platform each spawned thread sets it once.
// Defined inline here so every hook reads it without an out-of-line call.
inline thread_local CoreContext* tls_current_core = nullptr;
}  // namespace detail

// Returns the current logical core, or nullptr when called from setup code
// outside any core (e.g. while loading tables).
inline CoreContext* CurrentCore() { return detail::tls_current_core; }

// Installs/clears the current core. Platform-internal.
inline void SetCurrentCore(CoreContext* ctx) {
  detail::tls_current_core = ctx;
}

// Kind of memory operation, for the simulator's cost model. Plain stores
// retire through the store buffer (the core does not stall on the line
// transfer), while atomic read-modify-writes must own the line for their
// full service time — which is why contended RMWs serialize and contended
// stores mostly do not.
enum class MemOp { kLoad, kStore, kRmw };

// Simulator metadata for one cache line. Embedded in every hal::Atomic so a
// modeled access needs no hash lookups. Ignored by the native platform.
struct LineMeta {
  std::int16_t owner = -1;   // core that last wrote the line
  // Whether accesses through this line establish happens-before edges for
  // the race detector (SimConfig::race_detect). True for every hal::Atomic —
  // their loads/stores really are acquire/release. mp::QueueMesh clears
  // it on its rings' payload lines: the payload words are *relaxed*, their
  // ordering is carried by the ring-index atomics, so treating the payload
  // touch itself as a sync edge would mask exactly the publication races the
  // detector exists to find. Fits in struct padding; the cost model never
  // reads it.
  bool sync_var = true;
  Bitset128 readers;         // cores holding a (possibly shared) copy
  Cycles busy_until = 0;     // line occupied by in-flight atomic RMWs
};

// Simulator metadata for one durable storage device (a log stream's backing
// file). Embedded in the owning structure, mirroring LineMeta: a stable-
// storage sync is modeled as occupancy of the device, so concurrent syncs
// against one device serialize the way fsyncs on one disk do. Ignored by
// the native platform (whose "device" is process memory in this repo).
struct StorageMeta {
  Cycles busy_until = 0;     // device occupied by in-flight syncs
};

class Platform {
 public:
  virtual ~Platform() = default;

  virtual int num_cores() const = 0;

  // Registers logical core `core_id` to run `fn`. All Spawn calls must
  // happen before Run.
  virtual void Spawn(int core_id, std::function<void()> fn) = 0;

  // Runs all spawned cores to completion (joins threads / drains the event
  // loop). May be called once.
  virtual void Run() = 0;

  // Nominal clock rate used to convert cycles to seconds in reports.
  virtual double CyclesPerSecond() const = 0;

  // --- Hooks invoked from running cores -------------------------------

  // Current core's clock (virtual cycles under simulation).
  virtual Cycles Now() = 0;

  // Polite spin-wait pause; a scheduling point under simulation.
  virtual void CpuRelax() = 0;

  // The modeled-cost hooks below are reached only from cores whose
  // CoreContext::simulated is set; the defaults are no-ops.

  // Declares n cycles of computation by the current core.
  virtual void ConsumeCycles(Cycles n) { (void)n; }

  // Charges the coherence cost of an atomic access to `line`. Called by
  // hal::Atomic before performing the underlying operation.
  virtual void OnAtomicAccess(LineMeta* line, MemOp op) {
    (void)line;
    (void)op;
  }

  // Charges the cost of forcing `bytes` of buffered log data to stable
  // storage on `device`. The calling core stalls for the sync latency the
  // same way fsync callers do; the device serializes concurrent syncs.
  virtual void OnStorageSync(StorageMeta* device, std::uint64_t bytes) {
    (void)device;
    (void)bytes;
  }

  // Declares a *plain* (non-atomic) access to shared payload memory for
  // race detection. Charges no cycles and is not a scheduling point; the
  // default (and the native platform, where TSan covers plain memory) is a
  // no-op. Reached only through hal::RaceCheck, which gates on
  // CoreContext::race_check.
  virtual void OnPlainAccess(const void* addr, std::size_t bytes,
                             bool is_write, const char* label) {
    (void)addr;
    (void)bytes;
    (void)is_write;
    (void)label;
  }
};

// ---------------------------------------------------------------------
// Free functions used on hot paths. All degrade to cheap no-ops when not on
// a logical core (setup/teardown code); ConsumeCycles and OnStorageSync are
// also no-ops on native cores.

// Returns the cycles it modelled: n on a simulated core, 0 elsewhere. A
// caller timing a span that contains declared work can move exactly that
// work to another category without reading the clock around it.
inline Cycles ConsumeCycles(Cycles n) {
  CoreContext* cc = CurrentCore();
  if (cc == nullptr || !cc->simulated) return 0;
  cc->platform->ConsumeCycles(n);
  return n;
}

inline void CpuRelax() {
  CoreContext* cc = CurrentCore();
  if (cc != nullptr) cc->platform->CpuRelax();
}

inline Cycles Now() {
  CoreContext* cc = CurrentCore();
  return cc != nullptr ? cc->platform->Now() : 0;
}

// Declares a stable-storage sync by the current core (no-op off-core and on
// native cores).
inline void OnStorageSync(StorageMeta* device, std::uint64_t bytes) {
  CoreContext* cc = CurrentCore();
  if (cc != nullptr && cc->simulated) {
    cc->platform->OnStorageSync(device, bytes);
  }
}

// Id of the calling logical core, or -1 outside any core.
inline int CoreId() {
  CoreContext* cc = CurrentCore();
  return cc != nullptr ? cc->core_id : -1;
}

// Hints the hardware to pull `addr`'s line toward the calling core. A pure
// hardware hint: no modeled cost, no scheduling point, no side effect under
// simulation and no modeled credit, so a prefetch can never perturb a
// modeled clock; its benefit shows only natively.
inline void Prefetch(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr);
#else
  (void)addr;
#endif
}

// Declares a plain access to cross-core payload memory — record rows under
// logical locks, ring payload words, TCB fields riding messages, WAL
// fragment buffers — so the simulator's race detector can verify the
// protecting protocol actually orders it. `label` names the site in race
// reports (use a stable string literal, e.g. "kv.row"). Free when the
// detector is off (one branch) and off-core (setup/loader code: skipped).
inline void RaceCheck(const void* addr, std::size_t bytes, bool is_write,
                      const char* label) {
  CoreContext* cc = CurrentCore();
  if (cc != nullptr && ORTHRUS_UNLIKELY(cc->race_check)) {
    cc->platform->OnPlainAccess(addr, bytes, is_write, label);
  }
}

// Cheap deterministic per-core jitter in [0, bound). Spin loops add it to
// their backoff so that, under the *deterministic* simulator, competing
// cores cannot phase-lock into periodic patterns where one core loses every
// latch race forever — real hardware breaks such ties with timing noise,
// the simulator breaks them with per-core pseudo-randomness (runs remain
// reproducible).
inline Cycles FastJitter(Cycles bound) {
  CoreContext* cc = CurrentCore();
  if (cc == nullptr || bound == 0) return 0;
  cc->jitter_state =
      cc->jitter_state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<Cycles>((cc->jitter_state >> 33) % bound);
}

// ---------------------------------------------------------------------
// hal::Atomic<T>: a std::atomic whose accesses are charged coherence costs
// under simulation. Aligned to a cache line so each instance models one
// line, matching how contended metadata behaves on real hardware.

template <typename T>
class alignas(kCacheLineSize) Atomic {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "hal::Atomic models single-line word-sized state");

 public:
  Atomic() : v_{} {}
  explicit Atomic(T v) : v_(v) {}

  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load() {
    Touch(MemOp::kLoad);
    return v_.load(std::memory_order_acquire);
  }

  void store(T v) {
    Touch(MemOp::kStore);
    v_.store(v, std::memory_order_release);
  }

  T fetch_add(T d) {
    Touch(MemOp::kRmw);
    return v_.fetch_add(d, std::memory_order_acq_rel);
  }

  T exchange(T v) {
    Touch(MemOp::kRmw);
    return v_.exchange(v, std::memory_order_acq_rel);
  }

  bool compare_exchange(T& expected, T desired) {
    Touch(MemOp::kRmw);
    return v_.compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
  }

  // Unmodeled accesses for single-threaded setup / teardown / verification
  // code. Never use these from a running core for cross-core state.
  T RawLoad() const { return v_.load(std::memory_order_relaxed); }
  void RawStore(T v) { v_.store(v, std::memory_order_relaxed); }

 private:
  void Touch(MemOp op) {
    CoreContext* cc = CurrentCore();
    if (cc != nullptr && cc->simulated) {
      cc->platform->OnAtomicAccess(&line_, op);
    }
  }

  std::atomic<T> v_;
  LineMeta line_;
};

// ---------------------------------------------------------------------
// Ticket spinlock over modeled atomics. Used for lock-table bucket latches
// and partition locks. FIFO handoff matters: under extreme arrival rates an
// unfair test-and-set latch can starve a holder of a *logical* lock trying
// to release it, wedging the whole system — a pathology fair latches (and
// production lock managers) avoid. Under simulation the ticket counter's
// serialized RMWs and the handoff invalidations produce the contention
// behaviour behind the paper's Figure 1.

class ORTHRUS_CAPABILITY("mutex") SpinLock {
 public:
  SpinLock() = default;

  void Lock() ORTHRUS_ACQUIRE() {
    const std::uint32_t my = next_.fetch_add(1);
    Cycles backoff = 0;
    while (serving_.load() != my) {
      ConsumeCycles(backoff + FastJitter(64));
      CpuRelax();
      backoff = backoff < 256 ? backoff + 32 : 256;
    }
  }

  void Unlock() ORTHRUS_RELEASE() {
    // Only the holder writes `serving_`, so the increment is race-free; the
    // RMW's invalidation of all spinning waiters is the modeled handoff.
    serving_.fetch_add(1);
  }

 private:
  Atomic<std::uint32_t> next_{0};
  Atomic<std::uint32_t> serving_{0};
};

// RAII guard for SpinLock.
class ORTHRUS_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& l) ORTHRUS_ACQUIRE(l) : l_(l) {
    l_.Lock();
  }
  ~SpinLockGuard() ORTHRUS_RELEASE() { l_.Unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& l_;
};

// ---------------------------------------------------------------------
// Exponential idle backoff for polling loops. Under simulation an idle core
// that polls every ~30 cycles would flood the event queue; backing off to a
// bounded cap keeps event counts proportional to useful work while adding
// at most `cap` cycles of wakeup latency (the same trade real systems make).

class IdleBackoff {
 public:
  explicit IdleBackoff(Cycles cap = 2048) : cap_(cap) {}

  // Call when an iteration made no progress.
  void Idle() {
    ConsumeCycles(current_);
    CpuRelax();
    current_ = current_ < cap_ ? current_ * 2 : cap_;
  }

  // Call when progress was made.
  void Reset() { current_ = kBase; }

 private:
  static constexpr Cycles kBase = 32;
  Cycles cap_;
  Cycles current_ = kBase;
};

// ---------------------------------------------------------------------
// Advises the kernel to back the whole 2 MiB pages inside [p, p + n) with
// transparent huge pages (madvise MADV_HUGEPAGE), for large heap arrays.
// Call before the first touch, so the first faults already map huge pages.
// Touches no byte and advises nothing outside that range. Returns the bytes
// advised: 0 when no whole page fits, off Linux, or when the call fails.
std::size_t AdviseHugePages(void* p, std::size_t n);

}  // namespace orthrus::hal

#endif  // ORTHRUS_HAL_HAL_H_
