// TPC-C schema (the NewOrder + Payment subset the paper evaluates,
// Section 4.4), with configurable scale so the ~10 GB spec-sized database
// fits the reproduction host. The schema is tree-structured: every lockable
// table except the read-only Item table hangs off Warehouse via its
// warehouse id, which is why partitioning by warehouse puts all of one
// transaction's locks on one concurrency-control thread (modulo the 10% /
// 15% remote-warehouse transactions the spec requires).
#ifndef ORTHRUS_WORKLOAD_TPCC_TPCC_SCHEMA_H_
#define ORTHRUS_WORKLOAD_TPCC_TPCC_SCHEMA_H_

#include <cstdint>

namespace orthrus::workload::tpcc {

// Catalog ids of the lockable tables.
enum TableId : std::uint32_t {
  kWarehouse = 0,
  kDistrict = 1,
  kCustomer = 2,
  kStock = 3,
  kItem = 4,  // read-only: never locked (paper Section 4.4)
  kNumTables = 5,
};

// Transaction mix in percent; must sum to 100. The paper's evaluation uses
// the NewOrder/Payment 50/50 subset (Section 4.4); the full five-type mix
// (approximating the spec's weights) is provided as an extension.
struct TpccMix {
  int new_order = 50;
  int payment = 50;
  int order_status = 0;
  int delivery = 0;
  int stock_level = 0;
};

inline TpccMix FullTpccMix() { return TpccMix{45, 43, 4, 4, 4}; }

struct TpccScale {
  int warehouses = 16;
  int districts_per_warehouse = 10;
  int customers_per_district = 300;  // spec: 3000
  int items = 10000;                 // spec: 100000
  // Ring capacity for orders per district; old orders are overwritten once
  // the ring wraps (benchmark runs care about rates, not history depth).
  int order_ring_capacity = 4096;
  int max_items_per_order = 15;
  // Extra payload padding on lockable rows, modeling the spec's fat rows.
  std::uint32_t row_padding = 48;
  std::uint64_t seed = 7;
  // Number of distinct last names customers are spread over (spec: 1000
  // generated syllable triples).
  int last_names = 1000;
  TpccMix mix;
  // StockLevel examines the items of this many recent orders (spec: 20;
  // scaled so access sets stay bounded).
  int stock_level_orders = 2;
  // Undelivered orders pre-loaded into every district's ring (the spec
  // loads 3000 orders per district, ~900 undelivered). Deliveries then
  // consume load-deterministic orders instead of racing NewOrder for
  // whatever committed first, which is what lets Delivery join the
  // cross-engine equivalence mix. The Delivery cursor is additionally
  // capped at the seeded frontier whenever this is > 0: once the backlog
  // is exhausted a district reports nothing to deliver rather than
  // consuming an interleaving-dependent runtime order, so the delivered
  // contents (and every customer credit) stay load-deterministic for any
  // number of committed Deliveries (see DeliveryLogic::DeliverableEnd).
  int seeded_orders = 0;
};

// --- Key encoding: warehouse id lives in the high 32 bits so that the
// kWarehouseHigh32 partitioner routes every lock of a warehouse to one
// partition. Item keys are plain item ids (never locked).

inline std::uint64_t WarehouseKey(int w) {
  return static_cast<std::uint64_t>(w) << 32;
}
inline std::uint64_t DistrictKey(int w, int d) {
  return (static_cast<std::uint64_t>(w) << 32) |
         static_cast<std::uint64_t>(d);
}
inline std::uint64_t CustomerKey(int w, int d, int c) {
  return (static_cast<std::uint64_t>(w) << 32) |
         (static_cast<std::uint64_t>(d) << 20) | static_cast<std::uint64_t>(c);
}
inline std::uint64_t StockKey(int w, int i) {
  return (static_cast<std::uint64_t>(w) << 32) |
         static_cast<std::uint64_t>(i);
}
inline std::uint64_t ItemKey(int i) { return static_cast<std::uint64_t>(i); }

// Secondary-index attribute for Payment-by-last-name lookups.
inline std::uint64_t LastNameAttr(int w, int d, int name_code) {
  return (static_cast<std::uint64_t>(w) << 32) |
         (static_cast<std::uint64_t>(d) << 20) |
         static_cast<std::uint64_t>(name_code);
}

// --- Row layouts (money in integer cents; rates in basis points). Rows are
// embedded at the head of each table row; row_padding bytes follow.

// Relaxed atomic access to the fields that OLLP reconnaissance reads
// without locks while lock holders write them: DistrictRow::next_o_id and
// delivered_o_id, OrderRec::c_id and ol_cnt, OrderLineRec::i_id (Delivery
// and StockLevel plan from them). Both sides go through these so the
// accesses are not data races; a stale read is caught by the validation
// under locks in Run. They compile to plain loads and stores and add no
// modeled cost.
template <typename T>
T LoadRelaxed(const T& field) {
  return __atomic_load_n(&field, __ATOMIC_RELAXED);
}

template <typename T>
void StoreRelaxed(T& field, T value) {
  __atomic_store_n(&field, value, __ATOMIC_RELAXED);
}

struct WarehouseRow {
  std::uint64_t ytd_cents;
  std::uint32_t tax_bp;  // sales tax, basis points (0..2000)
};

struct DistrictRow {
  std::uint64_t ytd_cents;
  std::uint32_t tax_bp;
  std::uint32_t next_o_id;      // order-id allocator; guarded by the X lock
  std::uint32_t history_cnt;    // per-district history ring cursor
  std::uint32_t delivered_o_id; // next order to deliver (Delivery cursor)
};

struct CustomerRow {
  std::int64_t balance_cents;
  std::uint64_t ytd_payment_cents;
  std::uint32_t payment_cnt;
  std::uint32_t last_name_code;
  std::uint32_t credit_ok;  // 1 = GC, 0 = BC
};

struct StockRow {
  std::uint32_t quantity;
  std::uint32_t ytd;         // total quantity sold
  std::uint32_t order_cnt;
  std::uint32_t remote_cnt;
};

struct ItemRow {
  std::uint32_t price_cents;
  std::uint32_t name_hash;
};

// --- Non-locked append structures (their placement is derived from
// counters already guarded by the district X lock, so no extra CC needed).

struct OrderRec {
  std::uint32_t o_id;
  std::uint32_t c_id;
  std::uint32_t ol_cnt;
  std::uint32_t all_local;
  std::uint64_t total_cents;
};

struct OrderLineRec {
  std::uint32_t i_id;
  std::uint32_t supply_w;
  std::uint32_t quantity;
  std::uint32_t amount_cents;
};

struct HistoryRec {
  std::uint64_t amount_cents;
  std::uint32_t c_w;
  std::uint32_t c_d;
  std::uint32_t c_id;
};

}  // namespace orthrus::workload::tpcc

#endif  // ORTHRUS_WORKLOAD_TPCC_TPCC_SCHEMA_H_
