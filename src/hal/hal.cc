#include "hal/hal.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace orthrus::hal {

std::size_t AdviseHugePages(void* p, std::size_t n) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHugePageBytes = 2u << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first =
      (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t last = (begin + n) & ~(kHugePageBytes - 1);
  if (last <= first) return 0;
  const std::size_t bytes = last - first;
  if (madvise(reinterpret_cast<void*>(first), bytes, MADV_HUGEPAGE) != 0) {
    return 0;
  }
  return bytes;
#else
  (void)p;
  (void)n;
  return 0;
#endif
}

}  // namespace orthrus::hal
