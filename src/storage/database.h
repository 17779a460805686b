// Database catalog: owns tables and the partitioning function shared by the
// engines (which partition either locks or data by it).
#ifndef ORTHRUS_STORAGE_DATABASE_H_
#define ORTHRUS_STORAGE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "storage/table.h"

namespace orthrus::storage {

// Maps (table, key) to a partition in [0, n). Engines use it to route lock
// requests to concurrency-control threads (ORTHRUS) or data to physical
// partitions (Partitioned-store); workloads use it to construct transactions
// with controlled partition footprints.
struct Partitioner {
  enum class Mode {
    kModulo,          // partition = key % n  (flat key spaces: micro, YCSB)
    kWarehouseHigh32  // partition = (key >> 32) % n  (TPC-C tree schema)
  };

  int n = 1;
  Mode mode = Mode::kModulo;

  int PartOf(std::uint64_t key) const {
    const std::uint64_t basis =
        mode == Mode::kWarehouseHigh32 ? (key >> 32) : key;
    return static_cast<int>(basis % static_cast<std::uint64_t>(n));
  }
};

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Creates a table; `id` must equal the next unused catalog id so that
  // table ids double as dense vector indexes.
  Table* CreateTable(std::uint32_t id, std::string name,
                     std::uint64_t capacity, std::uint32_t row_bytes);

  Table* GetTable(std::uint32_t id) {
    ORTHRUS_DCHECK(id < tables_.size());
    return tables_[id].get();
  }
  const Table* GetTable(std::uint32_t id) const {
    ORTHRUS_DCHECK(id < tables_.size());
    return tables_[id].get();
  }

  std::size_t num_tables() const { return tables_.size(); }

  Partitioner& partitioner() { return partitioner_; }
  const Partitioner& partitioner() const { return partitioner_; }

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  Partitioner partitioner_;
};

}  // namespace orthrus::storage

#endif  // ORTHRUS_STORAGE_DATABASE_H_
