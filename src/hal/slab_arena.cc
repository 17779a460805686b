#include "hal/slab_arena.h"

#include <cstring>

#include "common/macros.h"

#if defined(__linux__) || defined(__APPLE__)
#include <sys/mman.h>

#include <unistd.h>
#define ORTHRUS_SLAB_MMAP 1
#endif

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace orthrus::hal {

namespace {

constexpr std::size_t kHugePageBytes = 2u << 20;

std::size_t RoundUp(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

// Best-effort MPOL_PREFERRED binding via the raw syscall: libnuma is not a
// dependency we can take, and a failed bind (no NUMA support, node out of
// range, kernel without CONFIG_NUMA) must degrade to first-touch, not fail.
void BindToNode(void* addr, std::size_t len, int node) {
#if defined(__linux__) && defined(SYS_mbind)
  if (node < 0 || node >= 64) return;
  constexpr int kMpolPreferred = 1;
  unsigned long nodemask = 1ul << node;
  syscall(SYS_mbind, addr, len, kMpolPreferred, &nodemask,
          static_cast<unsigned long>(64 + 1), 0u);
#else
  (void)addr;
  (void)len;
  (void)node;
#endif
}

}  // namespace

std::size_t AdviseHugePages(void* p, std::size_t n) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = RoundUp(begin, kHugePageBytes);
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

SlabArena::SlabArena(SlabArenaOptions opts) : opts_(opts) {
  if (opts_.slab_bytes < (1u << 16)) opts_.slab_bytes = 1u << 16;
  opts_.slab_bytes = RoundUp(opts_.slab_bytes, 4096);
}

SlabArena::~SlabArena() {
  for (const Slab& slab : slabs_) {
#if defined(ORTHRUS_SLAB_MMAP)
    munmap(slab.base, slab.bytes);
#else
    ::operator delete(slab.base, std::align_val_t(4096));
#endif
  }
}

void SlabArena::NewSlab(std::size_t min_bytes) {
  std::size_t bytes = RoundUp(min_bytes > opts_.slab_bytes ? min_bytes
                                                           : opts_.slab_bytes,
                              4096);
  void* base = nullptr;
#if defined(ORTHRUS_SLAB_MMAP)
#if defined(MAP_HUGETLB)
  if (opts_.huge_pages) {
    std::size_t huge = RoundUp(bytes, kHugePageBytes);
    base = mmap(nullptr, huge, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (base == MAP_FAILED) {
      base = nullptr;  // no hugetlb pool configured; fall back below
    } else {
      bytes = huge;
      huge_pages_active_ = true;
    }
  }
#endif
  if (base == nullptr) {
    base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ORTHRUS_CHECK_MSG(base != MAP_FAILED, "SlabArena mmap failed");
  }
#else
  base = ::operator new(bytes, std::align_val_t(4096));
  std::memset(base, 0, bytes);
#endif
  BindToNode(base, bytes, opts_.node);
  slabs_.push_back(Slab{base, bytes});
  cursor_ = static_cast<std::uint8_t*>(base);
  limit_ = cursor_ + bytes;
  bytes_reserved_ += bytes;
}

void* SlabArena::Allocate(std::size_t bytes, std::size_t align) {
  ORTHRUS_CHECK(align != 0 && (align & (align - 1)) == 0 && align <= 4096);
  if (bytes == 0) bytes = 1;
  std::uint8_t* p =
      reinterpret_cast<std::uint8_t*>(RoundUp(
          reinterpret_cast<std::uintptr_t>(cursor_), align));
  if (p == nullptr || p + bytes > limit_) {
    // Slab bases are page-aligned, so a fresh slab satisfies any align.
    NewSlab(bytes);
    p = cursor_;
  }
  cursor_ = p + bytes;
  bytes_used_ += bytes;
  return p;
}

}  // namespace orthrus::hal
