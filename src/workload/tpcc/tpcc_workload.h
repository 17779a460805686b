// TPC-C workload (NewOrder + Payment, 50/50 mix) as evaluated in Section
// 4.4 of the paper:
//
//  * one-shot stored procedures, no client think time;
//  * 10% of NewOrder and 15% of Payment transactions span two warehouses,
//    so ~12.5% of transactions need locks from two CC threads;
//  * 60% of Payments locate the customer by last name through a secondary
//    index — a data-dependent access set resolved by OLLP reconnaissance
//    (Section 3.2) and validated at execution time.
#ifndef ORTHRUS_WORKLOAD_TPCC_TPCC_WORKLOAD_H_
#define ORTHRUS_WORKLOAD_TPCC_TPCC_WORKLOAD_H_

#include <memory>
#include <vector>

#include "storage/secondary_index.h"
#include "txn/txn.h"
#include "workload/tpcc/tpcc_schema.h"
#include "workload/workload.h"

namespace orthrus::workload::tpcc {

// Per-core commit tallies for consistency checking. Each core writes only
// its own cache-padded slot; sums are read at verification time.
struct TpccTallies {
  struct alignas(64) Tally {
    std::uint64_t neworders = 0;
    std::uint64_t payments = 0;
    std::uint64_t payment_cents = 0;
    std::uint64_t ordered_qty = 0;
    std::uint64_t order_statuses = 0;
    std::uint64_t deliveries = 0;           // committed Delivery txns
    std::uint64_t orders_delivered = 0;     // orders they delivered
    std::uint64_t delivered_cents = 0;      // credited to customer balances
    std::uint64_t stock_levels = 0;
    std::uint64_t low_stock_seen = 0;
  };
  Tally per_core[128];

  Tally Sum() const {
    Tally t;
    for (const Tally& s : per_core) {
      t.neworders += s.neworders;
      t.payments += s.payments;
      t.payment_cents += s.payment_cents;
      t.ordered_qty += s.ordered_qty;
      t.order_statuses += s.order_statuses;
      t.deliveries += s.deliveries;
      t.orders_delivered += s.orders_delivered;
      t.delivered_cents += s.delivered_cents;
      t.stock_levels += s.stock_levels;
      t.low_stock_seen += s.low_stock_seen;
    }
    return t;
  }
};

// Mutable auxiliary state outside the lock-managed tables: append rings for
// orders/order-lines/history (placement guarded by district locks) and the
// customer last-name secondary index (read-only after load).
struct TpccAux {
  TpccScale scale;

  // Ring storage indexed [w * districts + d][slot].
  std::vector<std::vector<OrderRec>> orders;
  std::vector<std::vector<OrderLineRec>> order_lines;  // slot*max_items + j
  std::vector<std::vector<HistoryRec>> history;

  storage::SecondaryIndex customers_by_name;

  TpccTallies tallies;

  int DistrictIndex(int w, int d) const {
    return w * scale.districts_per_warehouse + d;
  }
};

// Per-transaction parameters.
struct NewOrderParams {
  std::int32_t w, d, c;
  std::int32_t ol_cnt;
  std::int32_t item_id[15];
  std::int32_t supply_w[15];
  std::int32_t quantity[15];
};

struct OrderStatusParams {
  std::int32_t w, d;
  std::int32_t c;  // -1 when selected by last name
  std::int32_t by_last_name;
  std::int32_t name_code;
  std::uint64_t resolved_c_key;  // OLLP annotation
};

// Delivery processes the oldest undelivered order of every district of one
// warehouse. The customer owed each order is data-dependent (read from the
// order ring at the delivery cursor), so the access set is an OLLP estimate
// that can go stale when a concurrent Delivery advances the cursor.
struct DeliveryParams {
  std::int32_t w;
  std::int32_t carrier;
  // Reconnaissance results, one per district: the cursor observed and the
  // customer key estimated from it (kNoCustomer when nothing to deliver).
  static constexpr std::uint64_t kNoCustomer = ~0ull;
  std::uint32_t observed_cursor[10];
  std::uint64_t customer_key[10];
};

struct StockLevelParams {
  std::int32_t w, d;
  std::uint32_t threshold;
  // Reconnaissance: next_o_id observed and the distinct item ids collected
  // from the most recent orders.
  std::uint32_t observed_next_o_id;
  std::int32_t n_items;
  std::int32_t items[32];
};

struct PaymentParams {
  std::int32_t w, d;        // the paying terminal's warehouse/district
  std::int32_t c_w, c_d;    // the customer's home warehouse/district
  std::int32_t c;           // customer id; -1 when selected by last name
  std::int32_t by_last_name;
  std::int32_t name_code;
  std::int64_t amount_cents;
  // OLLP annotation: the customer key the reconnaissance pass estimated.
  std::uint64_t resolved_c_key;
};

class TpccWorkload final : public Workload {
 public:
  explicit TpccWorkload(TpccScale scale);
  ~TpccWorkload() override;

  void Load(storage::Database* db, int unused) override;
  std::unique_ptr<TxnSource> MakeSource(int worker_id) const override;
  std::string name() const override;

  TpccAux* aux() const { return aux_.get(); }
  const TpccScale& scale() const { return aux_->scale; }

  // --- Consistency checks (setup/teardown time; see tpcc_test.cc) -------

  // Sum of warehouse YTD minus the initial value == total Payment amounts.
  std::uint64_t TotalWarehouseYtd(const storage::Database& db) const;
  // Sum over districts of (next_o_id - initial) == committed NewOrders.
  std::uint64_t TotalOrdersPlaced(const storage::Database& db) const;
  // Sum of customer balances (negative of total payments, plus order
  // totals are not applied to balance in the NewOrder subset).
  std::int64_t TotalCustomerBalance(const storage::Database& db) const;
  // Sum of stock YTD == total quantity ordered by committed NewOrders.
  std::uint64_t TotalStockYtd(const storage::Database& db) const;
  // Sum over districts of (delivered_o_id - initial) == committed
  // deliveries' order count.
  std::uint64_t TotalOrdersDelivered(const storage::Database& db) const;

  // Canonical digest of the lock-managed tables: FNV-1a over the
  // interleaving-independent columns of warehouse, district, customer, and
  // stock rows in slot order. Committed transactions are commutative on
  // these columns (sums and counters over huge initial stock), so two runs
  // that commit the same transaction multiset digest identically no matter
  // how each architecture interleaved them — the property the cross-engine
  // equivalence test pins. The append rings (orders, order lines, history)
  // are deliberately excluded: their slot contents depend on commit order.
  std::uint64_t CanonicalDigest(const storage::Database& db) const;

  // Order-id-independent canonical digest of the order rings: the multiset
  // of live order *contents* per district (commutative per-order hashing;
  // o_id and slot placement excluded). Interleaving-independent even for
  // workloads that append to the rings, which is what lets Delivery and
  // StockLevel join the cross-engine equivalence mix when combined with
  // TpccScale::seeded_orders (deliveries must consume seeded orders only).
  std::uint64_t CanonicalRingDigest(const storage::Database& db) const;

  static constexpr std::uint64_t kInitialStockQuantity = 1ull << 20;

 private:
  class Source;

  std::unique_ptr<TpccAux> aux_;
  std::unique_ptr<txn::TxnLogic> new_order_logic_;
  std::unique_ptr<txn::TxnLogic> payment_logic_;
  std::unique_ptr<txn::TxnLogic> order_status_logic_;
  std::unique_ptr<txn::TxnLogic> delivery_logic_;
  std::unique_ptr<txn::TxnLogic> stock_level_logic_;
};

// Stored-procedure logic (exposed for focused unit tests).
std::unique_ptr<txn::TxnLogic> MakeNewOrderLogic(TpccAux* aux);
std::unique_ptr<txn::TxnLogic> MakePaymentLogic(TpccAux* aux);
std::unique_ptr<txn::TxnLogic> MakeOrderStatusLogic(TpccAux* aux);
std::unique_ptr<txn::TxnLogic> MakeDeliveryLogic(TpccAux* aux);
std::unique_ptr<txn::TxnLogic> MakeStockLevelLogic(TpccAux* aux);

// Loader (exposed for tests that want a database without the workload).
void LoadTpccDatabase(storage::Database* db, TpccAux* aux);

}  // namespace orthrus::workload::tpcc

#endif  // ORTHRUS_WORKLOAD_TPCC_TPCC_WORKLOAD_H_
