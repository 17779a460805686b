// Unit tests for ORTHRUS stage building (engine/orthrus/stages.h): the
// sort on precomputed partitions must give exactly the order of a sort
// whose comparator recomputes each partition, and the stages must cut
// that order into contiguous runs with strictly ascending partitions.
#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/orthrus/stages.h"

namespace orthrus::engine {
namespace {

using storage::Partitioner;
using txn::Access;

// The comparator BuildStages replaces: PartOf inside every comparison.
void ReferenceSort(std::vector<Access>* accesses, const Partitioner& part) {
  std::sort(accesses->begin(), accesses->end(),
            [&part](const Access& a, const Access& b) {
              const int pa = part.PartOf(a.key);
              const int pb = part.PartOf(b.key);
              if (pa != pb) return pa < pb;
              if (a.table != b.table) return a.table < b.table;
              return a.key < b.key;
            });
}

// Random access set with many duplicate (table, key) entries: keys come
// from a small pool, and each entry carries a distinct row tag so any
// change in the relative order of equal elements is visible.
std::vector<Access> RandomAccesses(Rng* rng, std::size_t n,
                                   Partitioner::Mode mode) {
  const std::uint64_t key_pool = 1 + rng->NextU64(2 * n);
  std::vector<Access> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Access& a = out[i];
    a.table = static_cast<std::uint32_t>(rng->NextU64(3));
    const std::uint64_t k = rng->NextU64(key_pool);
    // Warehouse mode partitions on the high word: spread the pool over
    // eight "warehouses", keeping equal draws equal keys.
    a.key = mode == Partitioner::Mode::kWarehouseHigh32
                ? ((k % 8) << 32) | (k / 8)
                : k;
    a.mode = rng->NextU64(2) == 0 ? txn::LockMode::kShared
                                  : txn::LockMode::kExclusive;
    a.row = reinterpret_cast<void*>(static_cast<std::uintptr_t>(i + 1));
  }
  return out;
}

TEST(OrthrusStages, MatchesTheRecomputingComparatorAndCutsContiguousStages) {
  Rng rng(20161);
  std::array<PartedAccess, kMaxAccesses> scratch;
  std::array<Stage, kMaxStages> stages;
  int cases = 0;
  for (const Partitioner::Mode mode :
       {Partitioner::Mode::kModulo, Partitioner::Mode::kWarehouseHigh32}) {
    for (const int n_parts : {1, 2, 3, 4, 7}) {
      Partitioner part;
      part.n = n_parts;
      part.mode = mode;
      for (int iter = 0; iter < 1100; ++iter) {
        const std::size_t n = 1 + rng.NextU64(kMaxAccesses);
        std::vector<Access> got = RandomAccesses(&rng, n, mode);
        std::vector<Access> want = got;
        ReferenceSort(&want, part);
        const int n_stages =
            BuildStages(&got, part, scratch.data(), stages.data());
        cases++;

        ASSERT_EQ(got.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i].table, want[i].table) << i;
          ASSERT_EQ(got[i].key, want[i].key) << i;
          ASSERT_EQ(got[i].mode, want[i].mode) << i;
          ASSERT_EQ(got[i].row, want[i].row) << i;
        }

        ASSERT_GE(n_stages, 1);
        ASSERT_LE(n_stages, n_parts);
        std::size_t next = 0;
        for (int s = 0; s < n_stages; ++s) {
          const Stage& st = stages[static_cast<std::size_t>(s)];
          if (s > 0) {
            ASSERT_LT(stages[static_cast<std::size_t>(s - 1)].part, st.part);
          }
          ASSERT_EQ(st.begin, next);
          ASSERT_LT(st.begin, st.end);
          for (std::size_t i = st.begin; i < st.end; ++i) {
            ASSERT_EQ(part.PartOf(got[i].key), st.part) << i;
          }
          next = st.end;
        }
        ASSERT_EQ(next, n);
      }
    }
  }
  EXPECT_GE(cases, 10000);
}

}  // namespace
}  // namespace orthrus::engine
