// Tests for the storage layer: tables, hash index, reserved slots,
// huge-page advice, secondary index, database catalog, cost model.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "hal/hal.h"
#include "storage/database.h"
#include "storage/secondary_index.h"
#include "storage/table.h"

namespace orthrus::storage {
namespace {

TEST(Table, InsertAndLookup) {
  Table t(0, "t", 100, 16);
  std::uint64_t* row = static_cast<std::uint64_t*>(t.Insert(42));
  *row = 7;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.LookupRaw(42), row);
  EXPECT_EQ(*static_cast<std::uint64_t*>(t.LookupRaw(42)), 7u);
}

TEST(Table, LookupMissingReturnsNull) {
  Table t(0, "t", 10, 16);
  t.Insert(1);
  EXPECT_EQ(t.LookupRaw(2), nullptr);
}

TEST(Table, ManyKeysWithCollisions) {
  // Dense sequential keys force probe chains in the open-addressed index.
  Table t(0, "t", 5000, 16);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    *static_cast<std::uint64_t*>(t.Insert(k)) = k * 3;
  }
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(t.LookupRaw(k), nullptr) << k;
    EXPECT_EQ(*static_cast<std::uint64_t*>(t.LookupRaw(k)), k * 3);
  }
}

TEST(Table, DuplicateKeyDies) {
  Table t(0, "t", 10, 16);
  t.Insert(5);
  EXPECT_DEATH(t.Insert(5), "duplicate");
}

TEST(Table, CapacityOverflowDies) {
  Table t(0, "t", 2, 16);
  t.Insert(1);
  t.Insert(2);
  EXPECT_DEATH(t.Insert(3), "full");
}

TEST(Table, ProbeCostFollowsIndexSize) {
  // A 1M-row index blows the modeled cache; a 1k-row index does not.
  Table big(0, "big", 1 << 20, 16);
  Table small(1, "small", 1 << 10, 16);
  EXPECT_GT(big.ProbeCost(), small.ProbeCost());
}

TEST(Table, RowAccessCostScalesWithRowBytes) {
  Table thin(0, "thin", 10, 64);
  Table fat(1, "fat", 10, 1000);
  EXPECT_GT(fat.RowAccessCost(), thin.RowAccessCost());
}

TEST(Table, ReserveSlotsDisjointFromInserts) {
  Table t(0, "t", 100, 16);
  const std::uint64_t base = t.ReserveSlots(10);
  EXPECT_EQ(base, 90u);
  for (int i = 0; i < 80; ++i) t.Insert(i);
  // Reserved slots live at the top of the slab; inserted rows at the
  // bottom. Writing both must not interfere.
  *static_cast<std::uint64_t*>(t.RowBySlot(base)) = 0xDEAD;
  EXPECT_NE(t.LookupRaw(0), t.RowBySlot(base));
}

TEST(Table, ReserveOverflowDies) {
  Table t(0, "t", 10, 16);
  t.ReserveSlots(10);
  EXPECT_DEATH(t.ReserveSlots(1), "exceeds");
}

// Keys whose probes start at `cell` of a `cells`-entry index.
std::vector<std::uint64_t> KeysStartingAt(std::uint64_t cell,
                                          std::uint64_t cells, int n,
                                          std::uint64_t from = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; static_cast<int>(keys.size()) < n; ++k) {
    if ((Table::HashKey(k) & (cells - 1)) == cell) keys.push_back(k);
  }
  return keys;
}

TEST(Table, ProbeWrapsPastTheLastEntry) {
  // Capacity 3 gives an 8-entry index. Three keys homed at the last entry
  // fill it and wrap to entries 0 and 1; a fourth, absent key homed there
  // probes 7, 0, 1 and stops at the empty entry 2.
  Table t(0, "t", 3, 16);
  const std::vector<std::uint64_t> keys = KeysStartingAt(7, 8, 4);
  for (int i = 0; i < 3; ++i) {
    *static_cast<std::uint64_t*>(t.Insert(keys[i])) = 100 + i;
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(t.LookupRaw(keys[i]), nullptr) << i;
    EXPECT_EQ(*static_cast<std::uint64_t*>(t.LookupRaw(keys[i])),
              100u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(t.LookupRaw(keys[3]), nullptr);
  // Absent keys homed on the wrapped-into entries must not match the
  // entries that wrapped there.
  for (std::uint64_t k : KeysStartingAt(0, 8, 3)) {
    EXPECT_EQ(t.LookupRaw(k), nullptr) << k;
  }
  // The all-ones key marks an empty entry; it is never found.
  EXPECT_EQ(t.LookupRaw(~0ull), nullptr);
}

TEST(Table, CollidingKeysKeepTheirOwnRows) {
  Table t(0, "t", 64, 16);
  const std::vector<std::uint64_t> keys = KeysStartingAt(5, 128, 6);
  std::vector<void*> rows;
  for (std::uint64_t k : keys) rows.push_back(t.Insert(k));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(t.LookupRaw(keys[i]), rows[i]) << i;
    EXPECT_EQ(t.SlotOfRow(rows[i]), i);
  }
  const std::vector<std::uint64_t> absent =
      KeysStartingAt(5, 128, 1, keys.back() + 1);
  EXPECT_EQ(t.LookupRaw(absent[0]), nullptr);
}

TEST(Table, PrefetchIndexOnAbsentKeysChangesNothing) {
  Table t(0, "t", 100, 16);
  for (std::uint64_t k = 0; k < 50; ++k) t.Insert(k);
  for (std::uint64_t k : {50ull, 1000ull, 1ull << 40, ~0ull - 1, ~0ull}) {
    t.PrefetchIndex(k);
    EXPECT_EQ(t.LookupRaw(k), nullptr);
  }
  for (std::uint64_t k = 0; k < 50; ++k) {
    EXPECT_NE(t.LookupRaw(k), nullptr) << k;
  }
}

TEST(Table, RowsReadZeroAfterConstruction) {
  // 6.4 MB: the slab spans whole huge pages, so the advised path runs.
  Table t(0, "t", 100000, 60);
  const auto* bytes = static_cast<const std::uint8_t*>(t.RowBySlot(0));
  const std::uint64_t n = t.capacity() * t.row_stride();
  std::uint64_t nonzero = 0;
  for (std::uint64_t i = 0; i < n; ++i) nonzero += bytes[i] != 0;
  EXPECT_EQ(nonzero, 0u);
}

// --------------------------------------------------------- huge pages

constexpr std::size_t kHuge = 2u << 20;

struct FreeDeleter {
  void operator()(std::uint8_t* p) const { std::free(p); }
};

TEST(AdviseHugePages, AdvisesOnlyWholePagesInsideTheRange) {
  std::unique_ptr<std::uint8_t[], FreeDeleter> buf(
      static_cast<std::uint8_t*>(std::aligned_alloc(kHuge, 4 * kHuge)));
  ASSERT_NE(buf, nullptr);
  std::uint8_t* const p = buf.get();
  for (std::size_t i = 0; i < 4 * kHuge; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  // The kernel may lack THP; then every call advises nothing.
  const bool thp = hal::AdviseHugePages(p, kHuge) != 0;
#if defined(__linux__)
  if (std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled").good()) {
    EXPECT_TRUE(thp);
  }
#endif
  const auto advised = [&](std::size_t expect) { return thp ? expect : 0; };
  EXPECT_EQ(hal::AdviseHugePages(p, 4 * kHuge), advised(4 * kHuge));
  // Unaligned ends: only the whole pages strictly inside count.
  EXPECT_EQ(hal::AdviseHugePages(p + 1, 4 * kHuge - 1), advised(3 * kHuge));
  EXPECT_EQ(hal::AdviseHugePages(p + 4096, 3 * kHuge), advised(2 * kHuge));
  // Almost two pages, but straddling a boundary: no whole page inside.
  EXPECT_EQ(hal::AdviseHugePages(p + 1, 2 * kHuge - 2), 0u);
  // Smaller than one page, aligned or not.
  EXPECT_EQ(hal::AdviseHugePages(p, kHuge - 1), 0u);
  EXPECT_EQ(hal::AdviseHugePages(p + kHuge / 2, kHuge), 0u);
  EXPECT_EQ(hal::AdviseHugePages(p, 0), 0u);
  for (std::size_t i = 0; i < 4 * kHuge; ++i) {
    ASSERT_EQ(p[i], static_cast<std::uint8_t>(i * 31 + 7)) << i;
  }
}

TEST(AdviseHugePages, SmallHeapBuffersAreLeftAlone) {
  std::vector<std::uint8_t> small(kHuge / 2);
  for (std::size_t i = 0; i < small.size(); ++i) {
    small[i] = static_cast<std::uint8_t>(i ^ 0x5A);
  }
  EXPECT_EQ(hal::AdviseHugePages(small.data(), small.size()), 0u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    ASSERT_EQ(small[i], static_cast<std::uint8_t>(i ^ 0x5A)) << i;
  }
}

TEST(StorageCost, ProbeCostGrowsWithIndexSize) {
  StorageCostModel m;
  EXPECT_EQ(m.ProbeCost(1024), m.probe_base_cycles);
  EXPECT_GT(m.ProbeCost(64ull << 20), m.ProbeCost(2ull << 20));
}

TEST(Database, CatalogRoundTrip) {
  Database db;
  Table* a = db.CreateTable(0, "a", 10, 16);
  Table* b = db.CreateTable(1, "b", 10, 16);
  EXPECT_EQ(db.GetTable(0), a);
  EXPECT_EQ(db.GetTable(1), b);
  EXPECT_EQ(db.num_tables(), 2u);
}

TEST(Database, NonDenseTableIdDies) {
  Database db;
  db.CreateTable(0, "a", 10, 16);
  EXPECT_DEATH(db.CreateTable(5, "b", 10, 16), "dense");
}

TEST(Partitioner, ModuloMode) {
  Partitioner p{4, Partitioner::Mode::kModulo};
  EXPECT_EQ(p.PartOf(0), 0);
  EXPECT_EQ(p.PartOf(5), 1);
  EXPECT_EQ(p.PartOf(7), 3);
}

TEST(Partitioner, WarehouseMode) {
  Partitioner p{4, Partitioner::Mode::kWarehouseHigh32};
  const std::uint64_t key_w5 = (5ull << 32) | 1234;
  EXPECT_EQ(p.PartOf(key_w5), 1);  // 5 % 4
  const std::uint64_t key_w8 = (8ull << 32) | 99;
  EXPECT_EQ(p.PartOf(key_w8), 0);
}

// --------------------------------------------------------- SecondaryIndex

TEST(SecondaryIndex, PostingListsSortedAndComplete) {
  SecondaryIndex idx;
  idx.Add(7, 30);
  idx.Add(7, 10);
  idx.Add(7, 20);
  idx.Add(9, 5);
  idx.Finalize();
  const auto& postings = idx.Lookup(7);
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0], 10u);
  EXPECT_EQ(postings[1], 20u);
  EXPECT_EQ(postings[2], 30u);
  EXPECT_EQ(idx.Lookup(9).size(), 1u);
  EXPECT_TRUE(idx.Lookup(999).empty());
}

TEST(SecondaryIndex, MidpointRule) {
  SecondaryIndex idx;
  // TPC-C: position ceil(n/2), 1-based.
  idx.Add(1, 10);
  idx.Add(1, 20);
  idx.Add(1, 30);  // n=3 -> position 2 -> 20
  idx.Add(2, 10);
  idx.Add(2, 20);  // n=2 -> position 1 -> 10
  idx.Add(3, 42);  // n=1 -> 42
  idx.Finalize();
  EXPECT_EQ(idx.LookupMidpoint(1), 20u);
  EXPECT_EQ(idx.LookupMidpoint(2), 10u);
  EXPECT_EQ(idx.LookupMidpoint(3), 42u);
  EXPECT_EQ(idx.LookupMidpoint(99), SecondaryIndex::kNoMatch);
}

TEST(SecondaryIndex, OverrideForTestChangesMidpoint) {
  SecondaryIndex idx;
  idx.Add(1, 10);
  idx.Finalize();
  EXPECT_EQ(idx.LookupMidpoint(1), 10u);
  idx.OverrideForTest(1, {77, 88, 99});
  EXPECT_EQ(idx.LookupMidpoint(1), 88u);
}

}  // namespace
}  // namespace orthrus::storage
