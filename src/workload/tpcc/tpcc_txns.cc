// TPC-C stored procedures: NewOrder and Payment (Section 4.4).
//
// Locking footprint (matching the paper's description):
//   NewOrder: S(warehouse), X(district), S(customer), X(stock) per line.
//             Item reads are unlocked (read-only table). Order / NewOrder /
//             OrderLine inserts go to per-district rings whose slot is
//             derived from next_o_id, which the district X lock guards.
//   Payment:  X(warehouse), X(district), X(customer). 60% of Payments find
//             the customer through the last-name secondary index; that read
//             happens in OLLP reconnaissance (BuildAccessSet) and is
//             re-validated under locks in Run, aborting on a stale match.
#include "workload/tpcc/tpcc_workload.h"

#include <algorithm>

#include "common/macros.h"
#include "hal/hal.h"

namespace orthrus::workload::tpcc {

namespace {

// Declares a locked row access to the simulator's race detector before
// handing out the typed pointer. `is_write` mirrors the lock mode the
// access set annotated for this row; the detector then proves the engine's
// grant/release protocol actually orders conflicting accesses. The OLLP
// reconnaissance reads in BuildAccessSet are *not* checked: they are
// deliberately unlocked estimates (relaxed atomic loads, see LoadRelaxed),
// re-validated under locks in Run.
template <typename Row>
Row* CheckedRow(void* row, bool is_write, const char* label) {
  hal::RaceCheck(row, sizeof(Row), is_write, label);
  return static_cast<Row*>(row);
}

template <typename Row>
const Row* CheckedRowRead(const void* row, const char* label) {
  hal::RaceCheck(row, sizeof(Row), /*is_write=*/false, label);
  return static_cast<const Row*>(row);
}

class NewOrderLogic final : public txn::TxnLogic {
 public:
  explicit NewOrderLogic(TpccAux* aux) : aux_(aux) {}

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const NewOrderParams* p = t->Params<NewOrderParams>();
    t->accesses.reserve(3 + p->ol_cnt);
    t->accesses.push_back({kWarehouse, txn::LockMode::kShared,
                           WarehouseKey(p->w), nullptr});
    t->accesses.push_back({kDistrict, txn::LockMode::kExclusive,
                           DistrictKey(p->w, p->d), nullptr});
    t->accesses.push_back({kCustomer, txn::LockMode::kShared,
                           CustomerKey(p->w, p->d, p->c), nullptr});
    for (int j = 0; j < p->ol_cnt; ++j) {
      t->accesses.push_back({kStock, txn::LockMode::kExclusive,
                             StockKey(p->supply_w[j], p->item_id[j]),
                             nullptr});
    }
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const NewOrderParams* p = t->Params<NewOrderParams>();
    storage::Table* items = ctx.db->GetTable(kItem);
    const hal::Cycles row_op =
        items->cost_model().op_compute_cycles;

    auto* wr = CheckedRow<WarehouseRow>(
        t->RowFor(kWarehouse, WarehouseKey(p->w)), /*is_write=*/false,
        "tpcc.warehouse");
    auto* dr = CheckedRow<DistrictRow>(
        t->RowFor(kDistrict, DistrictKey(p->w, p->d)), /*is_write=*/true,
        "tpcc.district");
    [[maybe_unused]] auto* cr = CheckedRow<CustomerRow>(
        t->RowFor(kCustomer, CustomerKey(p->w, p->d, p->c)),
        /*is_write=*/false, "tpcc.customer");
    ORTHRUS_DCHECK(wr != nullptr && dr != nullptr && cr != nullptr);

    ctx.ChargeOp(ctx.db->GetTable(kWarehouse)->RowAccessCost() + row_op);
    ctx.ChargeOp(ctx.db->GetTable(kDistrict)->RowAccessCost() + row_op);
    ctx.ChargeOp(ctx.db->GetTable(kCustomer)->RowAccessCost() + row_op);

    // Allocate the order id under the district X lock.
    const std::uint32_t o_id = dr->next_o_id;
    StoreRelaxed(dr->next_o_id, o_id + 1);
    const int ring = aux_->DistrictIndex(p->w, p->d);
    const int cap = aux_->scale.order_ring_capacity;
    const int slot = static_cast<int>(o_id % static_cast<std::uint32_t>(cap));

    std::uint64_t total = 0;
    std::uint32_t all_local = 1;
    std::uint64_t qty_sum = 0;
    for (int j = 0; j < p->ol_cnt; ++j) {
      // Item price: unlocked read of the read-only Item table.
      const auto* ir = static_cast<const ItemRow*>(
          ctx.charge_cycles ? items->Lookup(ItemKey(p->item_id[j]))
                            : items->LookupRaw(ItemKey(p->item_id[j])));
      ORTHRUS_DCHECK(ir != nullptr);
      auto* sr = CheckedRow<StockRow>(
          t->RowFor(kStock, StockKey(p->supply_w[j], p->item_id[j])),
          /*is_write=*/true, "tpcc.stock");
      ORTHRUS_DCHECK(sr != nullptr);
      ctx.ChargeOp(ctx.db->GetTable(kStock)->RowAccessCost() + row_op);

      const std::uint32_t qty = static_cast<std::uint32_t>(p->quantity[j]);
      if (sr->quantity >= qty + 10) {
        sr->quantity -= qty;
      } else {
        sr->quantity = sr->quantity + 91 - qty;  // spec's restock rule
      }
      sr->ytd += qty;
      sr->order_cnt++;
      if (p->supply_w[j] != p->w) {
        sr->remote_cnt++;
        all_local = 0;
      }
      qty_sum += qty;

      const std::uint64_t amount =
          static_cast<std::uint64_t>(qty) * ir->price_cents;
      total += amount;
      OrderLineRec& ol =
          aux_->order_lines[ring][static_cast<std::size_t>(slot) *
                                      aux_->scale.max_items_per_order +
                                  j];
      hal::RaceCheck(&ol, sizeof(ol), /*is_write=*/true, "tpcc.orderline_ring");
      StoreRelaxed(ol.i_id, static_cast<std::uint32_t>(p->item_id[j]));
      ol.supply_w = static_cast<std::uint32_t>(p->supply_w[j]);
      ol.quantity = qty;
      ol.amount_cents = static_cast<std::uint32_t>(amount);
    }

    // Apply warehouse + district tax.
    total = total * (10000 + wr->tax_bp + dr->tax_bp) / 10000;

    OrderRec& order = aux_->orders[ring][slot];
    hal::RaceCheck(&order, sizeof(order), /*is_write=*/true,
                   "tpcc.order_ring");
    order.o_id = o_id;
    StoreRelaxed(order.c_id, static_cast<std::uint32_t>(p->c));
    StoreRelaxed(order.ol_cnt, static_cast<std::uint32_t>(p->ol_cnt));
    order.all_local = all_local;
    order.total_cents = total;
    ctx.ChargeOp(2 * row_op);  // order + new-order inserts

    TpccTallies::Tally& tally = aux_->tallies.per_core[hal::CoreId() & 127];
    tally.neworders++;
    tally.ordered_qty += qty_sum;
    return true;
  }

 private:
  TpccAux* aux_;
};

class PaymentLogic final : public txn::TxnLogic {
 public:
  explicit PaymentLogic(TpccAux* aux) : aux_(aux) {}

  bool NeedsReconnaissance() const override { return true; }

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    PaymentParams* p = t->Params<PaymentParams>();
    if (p->by_last_name) {
      // OLLP reconnaissance: unlocked secondary-index read yielding an
      // *estimate* of the customer key (Section 3.2).
      const std::uint64_t est = aux_->customers_by_name.LookupMidpoint(
          LastNameAttr(p->c_w, p->c_d, p->name_code));
      ORTHRUS_CHECK_MSG(est != storage::SecondaryIndex::kNoMatch,
                        "last-name lookup found no customer");
      p->resolved_c_key = est;
    } else {
      p->resolved_c_key = CustomerKey(p->c_w, p->c_d, p->c);
    }
    t->accesses.reserve(3);
    t->accesses.push_back({kWarehouse, txn::LockMode::kExclusive,
                           WarehouseKey(p->w), nullptr});
    t->accesses.push_back({kDistrict, txn::LockMode::kExclusive,
                           DistrictKey(p->w, p->d), nullptr});
    t->accesses.push_back(
        {kCustomer, txn::LockMode::kExclusive, p->resolved_c_key, nullptr});
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const PaymentParams* p = t->Params<PaymentParams>();
    const hal::Cycles row_op =
        ctx.db->GetTable(kWarehouse)->cost_model().op_compute_cycles;

    // Validate the OLLP estimate before any write: if the index now points
    // at a different customer, the access annotation is stale and the
    // engine must re-plan.
    if (p->by_last_name) {
      const std::uint64_t now = aux_->customers_by_name.LookupMidpoint(
          LastNameAttr(p->c_w, p->c_d, p->name_code));
      if (now != p->resolved_c_key) return false;
    }

    auto* wr = CheckedRow<WarehouseRow>(
        t->RowFor(kWarehouse, WarehouseKey(p->w)), /*is_write=*/true,
        "tpcc.warehouse");
    auto* dr = CheckedRow<DistrictRow>(
        t->RowFor(kDistrict, DistrictKey(p->w, p->d)), /*is_write=*/true,
        "tpcc.district");
    auto* cr = CheckedRow<CustomerRow>(t->RowFor(kCustomer, p->resolved_c_key),
                                       /*is_write=*/true, "tpcc.customer");
    ORTHRUS_DCHECK(wr != nullptr && dr != nullptr && cr != nullptr);

    ctx.ChargeOp(ctx.db->GetTable(kWarehouse)->RowAccessCost() + row_op);
    ctx.ChargeOp(ctx.db->GetTable(kDistrict)->RowAccessCost() + row_op);
    ctx.ChargeOp(ctx.db->GetTable(kCustomer)->RowAccessCost() + row_op);

    const std::uint64_t amount =
        static_cast<std::uint64_t>(p->amount_cents);
    wr->ytd_cents += amount;
    dr->ytd_cents += amount;
    cr->balance_cents -= static_cast<std::int64_t>(amount);
    cr->ytd_payment_cents += amount;
    cr->payment_cnt++;

    // History insert, guarded by the district X lock.
    const int ring = aux_->DistrictIndex(p->w, p->d);
    const int cap = aux_->scale.order_ring_capacity;
    HistoryRec& h =
        aux_->history[ring][dr->history_cnt % static_cast<std::uint32_t>(cap)];
    hal::RaceCheck(&h, sizeof(h), /*is_write=*/true, "tpcc.history_ring");
    dr->history_cnt++;
    h.amount_cents = amount;
    h.c_w = static_cast<std::uint32_t>(p->c_w);
    h.c_d = static_cast<std::uint32_t>(p->c_d);
    h.c_id = static_cast<std::uint32_t>(p->resolved_c_key & 0xFFFFF);
    ctx.ChargeOp(row_op);

    TpccTallies::Tally& tally = aux_->tallies.per_core[hal::CoreId() & 127];
    tally.payments++;
    tally.payment_cents += amount;
    return true;
  }

 private:
  TpccAux* aux_;
};

// OrderStatus (extension beyond the paper's subset): read-only query of a
// customer's balance and most recent order. S locks on the district (pins
// the order ring against concurrent inserts/deliveries) and the customer;
// 60% locate the customer by last name (OLLP, like Payment).
class OrderStatusLogic final : public txn::TxnLogic {
 public:
  explicit OrderStatusLogic(TpccAux* aux) : aux_(aux) {}

  bool NeedsReconnaissance() const override { return true; }

  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    OrderStatusParams* p = t->Params<OrderStatusParams>();
    if (p->by_last_name) {
      const std::uint64_t est = aux_->customers_by_name.LookupMidpoint(
          LastNameAttr(p->w, p->d, p->name_code));
      ORTHRUS_CHECK_MSG(est != storage::SecondaryIndex::kNoMatch,
                        "last-name lookup found no customer");
      p->resolved_c_key = est;
    } else {
      p->resolved_c_key = CustomerKey(p->w, p->d, p->c);
    }
    t->accesses.push_back({kDistrict, txn::LockMode::kShared,
                           DistrictKey(p->w, p->d), nullptr});
    t->accesses.push_back(
        {kCustomer, txn::LockMode::kShared, p->resolved_c_key, nullptr});
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const OrderStatusParams* p = t->Params<OrderStatusParams>();
    const hal::Cycles row_op =
        ctx.db->GetTable(kCustomer)->cost_model().op_compute_cycles;
    if (p->by_last_name) {
      const std::uint64_t now = aux_->customers_by_name.LookupMidpoint(
          LastNameAttr(p->w, p->d, p->name_code));
      if (now != p->resolved_c_key) return false;  // stale OLLP estimate
    }
    const auto* dr = CheckedRowRead<DistrictRow>(
        t->RowFor(kDistrict, DistrictKey(p->w, p->d)), "tpcc.district");
    const auto* cr = CheckedRowRead<CustomerRow>(
        t->RowFor(kCustomer, p->resolved_c_key), "tpcc.customer");
    ORTHRUS_DCHECK(dr != nullptr && cr != nullptr);
    ctx.ChargeOp(ctx.db->GetTable(kDistrict)->RowAccessCost() + row_op);
    ctx.ChargeOp(ctx.db->GetTable(kCustomer)->RowAccessCost() + row_op);

    // Scan the ring backwards for the customer's most recent order; the
    // district S lock keeps the ring stable.
    const int ring = aux_->DistrictIndex(p->w, p->d);
    const int cap = aux_->scale.order_ring_capacity;
    const std::uint32_t c_id =
        static_cast<std::uint32_t>(p->resolved_c_key & 0xFFFFF);
    std::uint64_t sink = cr->balance_cents >= 0
                             ? static_cast<std::uint64_t>(cr->balance_cents)
                             : 0;
    const std::uint32_t newest = dr->next_o_id;
    const std::uint32_t scan =
        std::min<std::uint32_t>(newest - 1, static_cast<std::uint32_t>(cap));
    for (std::uint32_t back = 1; back <= scan; ++back) {
      const OrderRec& o = aux_->orders[ring][(newest - back) % cap];
      hal::RaceCheck(&o, sizeof(o), /*is_write=*/false, "tpcc.order_ring");
      ctx.ChargeOp(row_op);
      if (o.c_id == c_id) {
        sink ^= o.total_cents;
        break;
      }
    }
    KeepValue(sink);

    TpccTallies::Tally& tally = aux_->tallies.per_core[hal::CoreId() & 127];
    tally.order_statuses++;
    return true;
  }

 private:
  TpccAux* aux_;
};

// Delivery (extension): processes the oldest undelivered order of each of
// the warehouse's districts — X(district) plus X(customer) per delivered
// order. The customer is read from the order ring at the delivery cursor
// during reconnaissance; a concurrent Delivery moving the cursor makes the
// estimate stale, which Run detects under locks (a *naturally occurring*
// OLLP abort, unlike Payment's index-stability case).
class DeliveryLogic final : public txn::TxnLogic {
 public:
  explicit DeliveryLogic(TpccAux* aux) : aux_(aux) {}

  bool NeedsReconnaissance() const override { return true; }

  // One past the newest order this Delivery may consume. Without seeded
  // orders that is next_o_id (deliver anything placed so far). With
  // seeded_orders > 0 — the cross-engine equivalence mode — the cursor is
  // capped at the load-time frontier: once the seeded backlog is
  // exhausted, a district reports nothing to deliver instead of consuming
  // a runtime order, whose contents (and thus the credited customer)
  // depend on the commit interleaving. That cap is what keeps the
  // delivered order multiset load-deterministic for *any* number of
  // committed Deliveries, not only runs that stop short of the backlog.
  std::uint32_t DeliverableEnd(const DistrictRow& dr) const {
    const std::uint32_t next = LoadRelaxed(dr.next_o_id);
    if (aux_->scale.seeded_orders <= 0) return next;
    const std::uint32_t frontier =
        1 + static_cast<std::uint32_t>(aux_->scale.seeded_orders);
    return std::min(next, frontier);
  }

  void BuildAccessSet(txn::Txn* t, storage::Database* db) override {
    DeliveryParams* p = t->Params<DeliveryParams>();
    const int d_count = aux_->scale.districts_per_warehouse;
    const int cap = aux_->scale.order_ring_capacity;
    for (int d = 0; d < d_count; ++d) {
      t->accesses.push_back({kDistrict, txn::LockMode::kExclusive,
                             DistrictKey(p->w, d), nullptr});
      // Unlocked reconnaissance reads of the cursor and the order ring.
      const auto* dr = static_cast<const DistrictRow*>(
          db->GetTable(kDistrict)->LookupRaw(DistrictKey(p->w, d)));
      ORTHRUS_DCHECK(dr != nullptr);
      const std::uint32_t cursor = LoadRelaxed(dr->delivered_o_id);
      p->observed_cursor[d] = cursor;
      if (cursor < DeliverableEnd(*dr)) {
        const int ring = aux_->DistrictIndex(p->w, d);
        const OrderRec& o = aux_->orders[ring][cursor % cap];
        p->customer_key[d] =
            CustomerKey(p->w, d, static_cast<int>(LoadRelaxed(o.c_id)));
        t->accesses.push_back({kCustomer, txn::LockMode::kExclusive,
                               p->customer_key[d], nullptr});
      } else {
        p->customer_key[d] = DeliveryParams::kNoCustomer;
      }
    }
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const DeliveryParams* p = t->Params<DeliveryParams>();
    const int d_count = aux_->scale.districts_per_warehouse;
    const int cap = aux_->scale.order_ring_capacity;
    const hal::Cycles row_op =
        ctx.db->GetTable(kDistrict)->cost_model().op_compute_cycles;

    // Validate the whole estimate before any write.
    for (int d = 0; d < d_count; ++d) {
      const auto* dr = CheckedRowRead<DistrictRow>(
          t->RowFor(kDistrict, DistrictKey(p->w, d)), "tpcc.district");
      ORTHRUS_DCHECK(dr != nullptr);
      if (dr->delivered_o_id != p->observed_cursor[d]) return false;
      const bool has_order = dr->delivered_o_id < DeliverableEnd(*dr);
      const bool planned = p->customer_key[d] != DeliveryParams::kNoCustomer;
      if (has_order != planned) return false;
      if (planned) {
        const int ring = aux_->DistrictIndex(p->w, d);
        const OrderRec& o = aux_->orders[ring][dr->delivered_o_id % cap];
        hal::RaceCheck(&o, sizeof(o), /*is_write=*/false, "tpcc.order_ring");
        if (CustomerKey(p->w, d, static_cast<int>(o.c_id)) !=
            p->customer_key[d]) {
          return false;
        }
      }
    }

    TpccTallies::Tally& tally = aux_->tallies.per_core[hal::CoreId() & 127];
    for (int d = 0; d < d_count; ++d) {
      auto* dr = CheckedRow<DistrictRow>(
          t->RowFor(kDistrict, DistrictKey(p->w, d)), /*is_write=*/true,
          "tpcc.district");
      ctx.ChargeOp(ctx.db->GetTable(kDistrict)->RowAccessCost() + row_op);
      if (p->customer_key[d] == DeliveryParams::kNoCustomer) continue;
      const int ring = aux_->DistrictIndex(p->w, d);
      const OrderRec& o = aux_->orders[ring][dr->delivered_o_id % cap];
      hal::RaceCheck(&o, sizeof(o), /*is_write=*/false, "tpcc.order_ring");
      auto* cr = CheckedRow<CustomerRow>(t->RowFor(kCustomer,
                                                   p->customer_key[d]),
                                         /*is_write=*/true, "tpcc.customer");
      ORTHRUS_DCHECK(cr != nullptr);
      ctx.ChargeOp(ctx.db->GetTable(kCustomer)->RowAccessCost() + row_op);
      cr->balance_cents += static_cast<std::int64_t>(o.total_cents);
      StoreRelaxed(dr->delivered_o_id, dr->delivered_o_id + 1);
      tally.orders_delivered++;
      tally.delivered_cents += o.total_cents;
    }
    tally.deliveries++;
    return true;
  }

 private:
  TpccAux* aux_;
};

// StockLevel (extension): read-only — counts recently-ordered items whose
// stock fell below a threshold. S(district) pins the ring; S(stock) per
// distinct item of the most recent orders. Access set is data-dependent on
// the ring contents, hence OLLP.
class StockLevelLogic final : public txn::TxnLogic {
 public:
  explicit StockLevelLogic(TpccAux* aux) : aux_(aux) {}

  bool NeedsReconnaissance() const override { return true; }

  void BuildAccessSet(txn::Txn* t, storage::Database* db) override {
    StockLevelParams* p = t->Params<StockLevelParams>();
    const int cap = aux_->scale.order_ring_capacity;
    const auto* dr = static_cast<const DistrictRow*>(
        db->GetTable(kDistrict)->LookupRaw(DistrictKey(p->w, p->d)));
    ORTHRUS_DCHECK(dr != nullptr);
    const std::uint32_t newest = LoadRelaxed(dr->next_o_id);
    p->observed_next_o_id = newest;
    p->n_items = 0;
    const int ring = aux_->DistrictIndex(p->w, p->d);
    const std::uint32_t scan = std::min<std::uint32_t>(
        newest - 1,
        static_cast<std::uint32_t>(aux_->scale.stock_level_orders));
    for (std::uint32_t back = 1; back <= scan; ++back) {
      const std::uint32_t o_id = newest - back;
      const OrderRec& o = aux_->orders[ring][o_id % cap];
      const std::uint32_t lines = std::min<std::uint32_t>(
          LoadRelaxed(o.ol_cnt), aux_->scale.max_items_per_order);
      for (std::uint32_t j = 0; j < lines && p->n_items < 32; ++j) {
        const OrderLineRec& ol =
            aux_->order_lines[ring][static_cast<std::size_t>(o_id % cap) *
                                        aux_->scale.max_items_per_order +
                                    j];
        const auto i_id = static_cast<std::int32_t>(LoadRelaxed(ol.i_id));
        bool fresh = true;
        for (int m = 0; m < p->n_items; ++m) {
          fresh &= (p->items[m] != i_id);
        }
        if (fresh) p->items[p->n_items++] = i_id;
      }
    }
    t->accesses.push_back({kDistrict, txn::LockMode::kShared,
                           DistrictKey(p->w, p->d), nullptr});
    for (int m = 0; m < p->n_items; ++m) {
      t->accesses.push_back({kStock, txn::LockMode::kShared,
                             StockKey(p->w, p->items[m]), nullptr});
    }
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    const StockLevelParams* p = t->Params<StockLevelParams>();
    const hal::Cycles row_op =
        ctx.db->GetTable(kStock)->cost_model().op_compute_cycles;
    const auto* dr = CheckedRowRead<DistrictRow>(
        t->RowFor(kDistrict, DistrictKey(p->w, p->d)), "tpcc.district");
    ORTHRUS_DCHECK(dr != nullptr);
    // A ring that moved since reconnaissance invalidates the item estimate.
    if (dr->next_o_id != p->observed_next_o_id) return false;
    ctx.ChargeOp(ctx.db->GetTable(kDistrict)->RowAccessCost() + row_op);

    std::uint64_t low = 0;
    for (int m = 0; m < p->n_items; ++m) {
      const auto* sr = CheckedRowRead<StockRow>(
          t->RowFor(kStock, StockKey(p->w, p->items[m])), "tpcc.stock");
      ORTHRUS_DCHECK(sr != nullptr);
      ctx.ChargeOp(ctx.db->GetTable(kStock)->RowAccessCost() + row_op);
      if (sr->quantity < p->threshold) low++;
    }

    TpccTallies::Tally& tally = aux_->tallies.per_core[hal::CoreId() & 127];
    tally.stock_levels++;
    tally.low_stock_seen += low;
    return true;
  }

 private:
  TpccAux* aux_;
};

}  // namespace

std::unique_ptr<txn::TxnLogic> MakeNewOrderLogic(TpccAux* aux) {
  return std::make_unique<NewOrderLogic>(aux);
}

std::unique_ptr<txn::TxnLogic> MakePaymentLogic(TpccAux* aux) {
  return std::make_unique<PaymentLogic>(aux);
}

std::unique_ptr<txn::TxnLogic> MakeOrderStatusLogic(TpccAux* aux) {
  return std::make_unique<OrderStatusLogic>(aux);
}

std::unique_ptr<txn::TxnLogic> MakeDeliveryLogic(TpccAux* aux) {
  return std::make_unique<DeliveryLogic>(aux);
}

std::unique_ptr<txn::TxnLogic> MakeStockLevelLogic(TpccAux* aux) {
  return std::make_unique<StockLevelLogic>(aux);
}

}  // namespace orthrus::workload::tpcc
