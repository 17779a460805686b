// NUMA-aware slab allocator backing the engine's long-lived flat arrays:
// table row slabs, LineRing blocks, lock-table buckets, and 512-aligned
// TCBs. Carves line-aligned chunks out of mmap'd slabs; optionally binds
// slabs to a NUMA node (raw mbind syscall, best effort) and requests 2 MB
// huge pages (MAP_HUGETLB with a plain-page fallback).
//
// There is no per-object free: everything lives until the arena dies, which
// matches how the engine uses these arrays (allocated once in Run(), torn
// down when the engine exits). Objects placed here via AllocateArray are
// value-initialized; non-trivially-destructible objects must be destroyed
// manually by the owner before the arena goes away.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace orthrus::hal {

struct SlabArenaOptions {
  int node = -1;            // >= 0: prefer this NUMA node (mbind, best effort)
  bool huge_pages = false;  // try MAP_HUGETLB first, fall back silently
  std::size_t slab_bytes = 2u << 20;  // granularity of mmap reservations
};

class SlabArena {
 public:
  explicit SlabArena(SlabArenaOptions opts = {});
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Zeroed storage (mmap pages start zeroed and the bump pointer never
  // reuses space). Alignment must be a power of two, at most 4096.
  void* Allocate(std::size_t bytes, std::size_t align = 64);

  // Value-initialized array of T. T's destructor is NOT run by the arena.
  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(alignof(T) <= 4096, "alignment beyond page size");
    std::size_t align = alignof(T) < 64 ? 64 : alignof(T);
    T* p = static_cast<T*>(Allocate(n * sizeof(T), align));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T();
    return p;
  }

  int node() const { return opts_.node; }
  std::size_t slabs() const { return slabs_.size(); }
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t bytes_used() const { return bytes_used_; }
  // True if at least one slab actually got MAP_HUGETLB pages.
  bool huge_pages_active() const { return huge_pages_active_; }

 private:
  struct Slab {
    void* base = nullptr;
    std::size_t bytes = 0;
  };

  void NewSlab(std::size_t min_bytes);

  SlabArenaOptions opts_;
  std::vector<Slab> slabs_;
  std::uint8_t* cursor_ = nullptr;
  std::uint8_t* limit_ = nullptr;
  std::size_t bytes_reserved_ = 0;
  std::size_t bytes_used_ = 0;
  bool huge_pages_active_ = false;
};

// Advises the kernel to back the whole 2 MiB pages inside [p, p + n) with
// transparent huge pages (madvise MADV_HUGEPAGE), for large heap arrays
// that do not come from a SlabArena. Call before the first touch, so the
// first faults already map huge pages. Touches no byte and advises nothing
// outside that range. Returns the bytes advised: 0 when no whole page fits,
// off Linux, or when the call fails.
std::size_t AdviseHugePages(void* p, std::size_t n);

// Lazily materialized per-node arenas, so placement code can say "give me
// the arena for socket s" without pre-deciding how many sockets exist.
class NodeArenaSet {
 public:
  explicit NodeArenaSet(SlabArenaOptions base = {}) : base_(base) {}

  // Arena bound to `node`; node < 0 yields a single unbound arena.
  SlabArena* ForNode(int node) {
    std::size_t slot = node < 0 ? 0 : static_cast<std::size_t>(node) + 1;
    if (slot >= arenas_.size()) arenas_.resize(slot + 1);
    if (arenas_[slot] == nullptr) {
      SlabArenaOptions opts = base_;
      opts.node = node < 0 ? -1 : node;
      arenas_[slot] = std::make_unique<SlabArena>(opts);
    }
    return arenas_[slot].get();
  }

 private:
  SlabArenaOptions base_;
  std::vector<std::unique_ptr<SlabArena>> arenas_;  // [0]=unbound, [n+1]=node n
};

}  // namespace orthrus::hal
