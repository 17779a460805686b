// ORTHRUS dispatch, stage building: a transaction's access set sorted
// into lock-partition order and cut into one acquisition stage per
// partition.
//
// Every exec thread runs this once per dispatch, so it computes each
// access's partition exactly once: the accesses are copied with their
// partitions into a caller-owned scratch array (sized at setup), sorted
// there on (partition, table, key), and copied back. Every comparison has
// the same outcome as a comparator that recomputes the partitions, so the
// resulting order — including the relative order of duplicate
// (table, key) entries — is the one that comparator gives.
#ifndef ORTHRUS_ENGINE_ORTHRUS_STAGES_H_
#define ORTHRUS_ENGINE_ORTHRUS_STAGES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "storage/database.h"
#include "txn/txn.h"

namespace orthrus::engine {

constexpr int kMaxAccesses = 40;  // TPC-C NewOrder peaks at ~18
constexpr int kMaxStages = kMaxAccesses;

// One lock-acquisition stage: the contiguous range of the (sorted) access
// array living in one lock partition. A partition IS a CC thread
// (partition id == CC id).
struct Stage {
  std::int32_t part = -1;
  std::uint16_t begin = 0;
  std::uint16_t end = 0;
};

// One access with its partition computed: the element BuildStages sorts.
struct PartedAccess {
  int part = 0;
  txn::Access access;
};

// Sorts `accesses` on (partition, table, key) and writes one Stage per run
// of equal partitions into `stages`, in ascending partition order. Both
// arrays hold kMaxAccesses entries; `accesses` must not hold more and must
// not be empty. Returns the stage count.
inline int BuildStages(std::vector<txn::Access>* accesses,
                       const storage::Partitioner& partitioner,
                       PartedAccess* scratch, Stage* stages) {
  const std::size_t n = accesses->size();
  ORTHRUS_CHECK(n > 0 && n <= static_cast<std::size_t>(kMaxAccesses));
  for (std::size_t i = 0; i < n; ++i) {
    const txn::Access& a = (*accesses)[i];
    scratch[i].part = partitioner.PartOf(a.key);
    scratch[i].access = a;
  }
  std::sort(scratch, scratch + n,
            [](const PartedAccess& a, const PartedAccess& b) {
              if (a.part != b.part) return a.part < b.part;
              if (a.access.table != b.access.table) {
                return a.access.table < b.access.table;
              }
              return a.access.key < b.access.key;
            });
  int n_stages = 0;
  for (std::size_t i = 0; i < n; ++i) {
    (*accesses)[i] = scratch[i].access;
    const int p = scratch[i].part;
    if (n_stages == 0 || stages[n_stages - 1].part != p) {
      Stage& s = stages[n_stages++];
      s.part = p;
      s.begin = static_cast<std::uint16_t>(i);
    }
    stages[n_stages - 1].end = static_cast<std::uint16_t>(i + 1);
  }
  return n_stages;
}

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_ORTHRUS_STAGES_H_
