// Common macros and small utilities shared by every module.
#ifndef ORTHRUS_COMMON_MACROS_H_
#define ORTHRUS_COMMON_MACROS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace orthrus {

// Cache line size assumed by layout decisions and by the simulator's
// coherence model.
inline constexpr std::size_t kCacheLineSize = 64;

// Keeps a read-only computation alive without storing its result. Storing
// it in a member of a logic object that every worker shares would be a
// data race, and would bounce that line between cores on every call.
inline void KeepValue(std::uint64_t v) { asm volatile("" : : "r"(v)); }

#define ORTHRUS_LIKELY(x) __builtin_expect(!!(x), 1)
#define ORTHRUS_UNLIKELY(x) __builtin_expect(!!(x), 0)

// Fatal invariant check that is active in all build types. Database engines
// should never run with checks compiled out: a broken invariant corrupts
// user data silently.
#define ORTHRUS_CHECK(cond)                                                  \
  do {                                                                       \
    if (ORTHRUS_UNLIKELY(!(cond))) {                                         \
      ::std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,        \
                     __LINE__, #cond);                                       \
      ::std::abort();                                                        \
    }                                                                        \
  } while (0)

#define ORTHRUS_CHECK_MSG(cond, msg)                                         \
  do {                                                                       \
    if (ORTHRUS_UNLIKELY(!(cond))) {                                         \
      ::std::fprintf(stderr, "CHECK failed at %s:%d: %s (%s)\n", __FILE__,   \
                     __LINE__, #cond, msg);                                  \
      ::std::abort();                                                        \
    }                                                                        \
  } while (0)

// Debug-only check, compiled out in release hot paths.
#ifndef NDEBUG
#define ORTHRUS_DCHECK(cond) ORTHRUS_CHECK(cond)
#else
#define ORTHRUS_DCHECK(cond) \
  do {                       \
  } while (0)
#endif

// ---------------------------------------------------------------------
// Clang Thread Safety Analysis annotations (-Wthread-safety). No-ops under
// GCC; CI runs a clang lane with -Werror=thread-safety so a lock-discipline
// violation (touching a GUARDED_BY field without its capability, unbalanced
// acquire/release) fails the build. The annotations are compile-time only —
// they change nothing about codegen on either compiler.
//
// Static analysis and the sim race detector split the work: annotations
// prove latch discipline where a latch exists (lock tables, CC buckets);
// the detector checks the message-passing / epoch-handoff protocols whose
// dynamic ownership has no lock to annotate.
#if defined(__clang__)
#define ORTHRUS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ORTHRUS_THREAD_ANNOTATION(x)
#endif

// On the class: this type is a lockable capability (e.g. hal::SpinLock).
#define ORTHRUS_CAPABILITY(x) ORTHRUS_THREAD_ANNOTATION(capability(x))
// On an RAII guard class whose constructor acquires and destructor releases.
#define ORTHRUS_SCOPED_CAPABILITY ORTHRUS_THREAD_ANNOTATION(scoped_lockable)
// On a field: may only be touched while holding the named capability.
#define ORTHRUS_GUARDED_BY(x) ORTHRUS_THREAD_ANNOTATION(guarded_by(x))
// On a pointer field: the pointee is guarded (the pointer itself is not).
#define ORTHRUS_PT_GUARDED_BY(x) ORTHRUS_THREAD_ANNOTATION(pt_guarded_by(x))
// On a function: caller must hold the capability.
#define ORTHRUS_REQUIRES(...) \
  ORTHRUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// On a function: acquires / releases the capability.
#define ORTHRUS_ACQUIRE(...) \
  ORTHRUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ORTHRUS_RELEASE(...) \
  ORTHRUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// On a function: must NOT be called with the capability held.
#define ORTHRUS_EXCLUDES(...) \
  ORTHRUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// On a function: returns a reference to the named capability.
#define ORTHRUS_RETURN_CAPABILITY(x) \
  ORTHRUS_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch for flows the static analysis cannot follow (conditional
// acquisition, capabilities handed across fibers). Use sparingly and say
// why at the use site.
#define ORTHRUS_NO_THREAD_SAFETY_ANALYSIS \
  ORTHRUS_THREAD_ANNOTATION(no_thread_safety_analysis)

// Returns true iff v is a power of two (and nonzero).
constexpr bool IsPowerOfTwo(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

// Smallest power of two >= v (v must be >= 1).
constexpr std::uint64_t NextPowerOfTwo(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace orthrus

#endif  // ORTHRUS_COMMON_MACROS_H_
