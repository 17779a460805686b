// Cost model for storage operations under simulation.
//
// Record payloads and index probes are represented as declared cycle costs
// (hal::ConsumeCycles) rather than per-line modeled accesses: modeling every
// payload byte as a cache line would make simulation quadratically slower
// while adding nothing to the contention story the paper is about. The one
// storage effect the model keeps is the cache footprint of a table's
// index: probe cost grows with the log of the index's size relative to
// the cache hierarchy.
#ifndef ORTHRUS_STORAGE_STORAGE_COST_H_
#define ORTHRUS_STORAGE_STORAGE_COST_H_

#include <cmath>
#include <cstdint>

#include "hal/hal.h"

namespace orthrus::storage {

struct StorageCostModel {
  // Index probe: base hash+compare work plus a miss penalty that grows as
  // the index outgrows the per-core cache (~1 MiB modeled capacity).
  hal::Cycles probe_base_cycles = 12;
  hal::Cycles probe_miss_cycles = 9;       // per doubling beyond cache size
  std::uint64_t cached_index_bytes = 1ull << 20;

  // Row access: per-64-byte-line cost of touching payload data.
  hal::Cycles row_line_cycles = 12;

  // Fixed computation per logical operation inside a stored procedure.
  hal::Cycles op_compute_cycles = 60;

  hal::Cycles ProbeCost(std::uint64_t index_bytes) const {
    if (index_bytes <= cached_index_bytes) return probe_base_cycles;
    const double doublings = std::log2(static_cast<double>(index_bytes) /
                                       static_cast<double>(cached_index_bytes));
    return probe_base_cycles +
           static_cast<hal::Cycles>(doublings * probe_miss_cycles);
  }

  hal::Cycles RowCost(std::uint32_t row_bytes) const {
    const std::uint32_t lines = (row_bytes + 63) / 64;
    return static_cast<hal::Cycles>(lines) * row_line_cycles;
  }
};

}  // namespace orthrus::storage

#endif  // ORTHRUS_STORAGE_STORAGE_COST_H_
