#include "workload/tpcc/tpcc_workload.h"

#include <algorithm>

#include "common/fnv.h"
#include "common/rng.h"

namespace orthrus::workload::tpcc {

// --------------------------------------------------------------- source

class TpccWorkload::Source final : public TxnSource {
 public:
  struct LogicSet {
    txn::TxnLogic* new_order;
    txn::TxnLogic* payment;
    txn::TxnLogic* order_status;
    txn::TxnLogic* delivery;
    txn::TxnLogic* stock_level;
  };

  Source(const TpccAux* aux, LogicSet logic, int worker_id)
      : aux_(aux),
        logic_(logic),
        rng_(aux->scale.seed * 0x2545F4914F6CDD1Dull + 17 + worker_id) {}

  void Next(txn::Txn* t) override {
    t->ResetForReuse();
    const TpccMix& mix = aux_->scale.mix;
    const int roll = static_cast<int>(rng_.NextU64(100));
    if (roll < mix.new_order) {
      FillNewOrder(t);
    } else if (roll < mix.new_order + mix.payment) {
      FillPayment(t);
    } else if (roll < mix.new_order + mix.payment + mix.order_status) {
      FillOrderStatus(t);
    } else if (roll <
               mix.new_order + mix.payment + mix.order_status + mix.delivery) {
      FillDelivery(t);
    } else {
      FillStockLevel(t);
    }
  }

 private:
  void FillNewOrder(txn::Txn* t) {
    const TpccScale& s = aux_->scale;
    t->logic = logic_.new_order;
    NewOrderParams* p = t->Params<NewOrderParams>();
    p->w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
    p->d = static_cast<std::int32_t>(rng_.NextU64(s.districts_per_warehouse));
    p->c = static_cast<std::int32_t>(
        NuRand(&rng_, 1023, 0, s.customers_per_district - 1, 123) %
        s.customers_per_district);
    p->ol_cnt = static_cast<std::int32_t>(rng_.NextInRange(5, 15));
    // Paper: 10% of NewOrder transactions span two warehouses.
    const bool remote = s.warehouses > 1 && rng_.Percent(10);
    const int remote_j =
        remote ? static_cast<int>(rng_.NextU64(p->ol_cnt)) : -1;
    for (int j = 0; j < p->ol_cnt; ++j) {
      // Distinct items via NURand with rejection.
      std::int32_t item;
      bool fresh;
      do {
        item = static_cast<std::int32_t>(
            NuRand(&rng_, 8191, 0, s.items - 1, 57) % s.items);
        fresh = true;
        for (int m = 0; m < j; ++m) fresh &= (p->item_id[m] != item);
      } while (!fresh);
      p->item_id[j] = item;
      p->quantity[j] = static_cast<std::int32_t>(rng_.NextInRange(1, 10));
      if (j == remote_j) {
        std::int32_t other;
        do {
          other = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
        } while (other == p->w);
        p->supply_w[j] = other;
      } else {
        p->supply_w[j] = p->w;
      }
    }
  }

  void FillPayment(txn::Txn* t) {
    const TpccScale& s = aux_->scale;
    t->logic = logic_.payment;
    PaymentParams* p = t->Params<PaymentParams>();
    p->w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
    p->d = static_cast<std::int32_t>(rng_.NextU64(s.districts_per_warehouse));
    // Paper / spec: 15% of Payments pay for a customer of another warehouse.
    if (s.warehouses > 1 && rng_.Percent(15)) {
      do {
        p->c_w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
      } while (p->c_w == p->w);
      p->c_d = static_cast<std::int32_t>(
          rng_.NextU64(s.districts_per_warehouse));
    } else {
      p->c_w = p->w;
      p->c_d = p->d;
    }
    // 60% select the customer by last name (secondary index + OLLP).
    p->by_last_name = rng_.Percent(60) ? 1 : 0;
    const int effective_names =
        std::min(s.last_names, s.customers_per_district);
    if (p->by_last_name) {
      p->c = -1;
      p->name_code = static_cast<std::int32_t>(
          NuRand(&rng_, 255, 0, effective_names - 1, 201) % effective_names);
    } else {
      p->c = static_cast<std::int32_t>(
          NuRand(&rng_, 1023, 0, s.customers_per_district - 1, 123) %
          s.customers_per_district);
      p->name_code = -1;
    }
    p->amount_cents = static_cast<std::int64_t>(rng_.NextInRange(100, 500000));
    p->resolved_c_key = 0;
  }

  void FillOrderStatus(txn::Txn* t) {
    const TpccScale& s = aux_->scale;
    t->logic = logic_.order_status;
    OrderStatusParams* p = t->Params<OrderStatusParams>();
    p->w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
    p->d = static_cast<std::int32_t>(rng_.NextU64(s.districts_per_warehouse));
    p->by_last_name = rng_.Percent(60) ? 1 : 0;
    const int effective_names =
        std::min(s.last_names, s.customers_per_district);
    if (p->by_last_name) {
      p->c = -1;
      p->name_code = static_cast<std::int32_t>(
          NuRand(&rng_, 255, 0, effective_names - 1, 201) % effective_names);
    } else {
      p->c = static_cast<std::int32_t>(
          NuRand(&rng_, 1023, 0, s.customers_per_district - 1, 123) %
          s.customers_per_district);
      p->name_code = -1;
    }
    p->resolved_c_key = 0;
  }

  void FillDelivery(txn::Txn* t) {
    const TpccScale& s = aux_->scale;
    t->logic = logic_.delivery;
    DeliveryParams* p = t->Params<DeliveryParams>();
    p->w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
    p->carrier = static_cast<std::int32_t>(rng_.NextInRange(1, 10));
  }

  void FillStockLevel(txn::Txn* t) {
    const TpccScale& s = aux_->scale;
    t->logic = logic_.stock_level;
    StockLevelParams* p = t->Params<StockLevelParams>();
    p->w = static_cast<std::int32_t>(rng_.NextU64(s.warehouses));
    p->d = static_cast<std::int32_t>(rng_.NextU64(s.districts_per_warehouse));
    p->threshold = static_cast<std::uint32_t>(rng_.NextInRange(10, 20));
  }

  const TpccAux* aux_;
  LogicSet logic_;
  Rng rng_;
};

// ------------------------------------------------------------- workload

TpccWorkload::TpccWorkload(TpccScale scale) {
  const TpccMix& m = scale.mix;
  ORTHRUS_CHECK_MSG(m.new_order + m.payment + m.order_status + m.delivery +
                            m.stock_level ==
                        100,
                    "TPC-C mix must sum to 100%");
  aux_ = std::make_unique<TpccAux>();
  aux_->scale = scale;
  new_order_logic_ = MakeNewOrderLogic(aux_.get());
  payment_logic_ = MakePaymentLogic(aux_.get());
  order_status_logic_ = MakeOrderStatusLogic(aux_.get());
  delivery_logic_ = MakeDeliveryLogic(aux_.get());
  stock_level_logic_ = MakeStockLevelLogic(aux_.get());
}

TpccWorkload::~TpccWorkload() = default;

std::string TpccWorkload::name() const {
  return "tpcc-w" + std::to_string(aux_->scale.warehouses);
}

void TpccWorkload::Load(storage::Database* db, int /*unused*/) {
  LoadTpccDatabase(db, aux_.get());
}

std::unique_ptr<TxnSource> TpccWorkload::MakeSource(int worker_id) const {
  Source::LogicSet logic{new_order_logic_.get(), payment_logic_.get(),
                         order_status_logic_.get(), delivery_logic_.get(),
                         stock_level_logic_.get()};
  return std::make_unique<Source>(aux_.get(), logic, worker_id);
}

// ---------------------------------------------------------- consistency

std::uint64_t TpccWorkload::TotalWarehouseYtd(
    const storage::Database& db) const {
  const storage::Table* t = db.GetTable(kWarehouse);
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < t->size(); ++s) {
    sum += static_cast<const WarehouseRow*>(t->RowBySlot(s))->ytd_cents;
  }
  return sum;
}

std::uint64_t TpccWorkload::TotalOrdersPlaced(
    const storage::Database& db) const {
  const storage::Table* t = db.GetTable(kDistrict);
  // Seeded orders advance next_o_id at load time; only the delta beyond
  // them counts committed NewOrders.
  const std::uint64_t initial =
      1 + static_cast<std::uint64_t>(aux_->scale.seeded_orders);
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < t->size(); ++s) {
    sum += static_cast<const DistrictRow*>(t->RowBySlot(s))->next_o_id -
           initial;
  }
  return sum;
}

std::int64_t TpccWorkload::TotalCustomerBalance(
    const storage::Database& db) const {
  const storage::Table* t = db.GetTable(kCustomer);
  std::int64_t sum = 0;
  for (std::uint64_t s = 0; s < t->size(); ++s) {
    sum += static_cast<const CustomerRow*>(t->RowBySlot(s))->balance_cents;
  }
  return sum;
}

std::uint64_t TpccWorkload::TotalStockYtd(const storage::Database& db) const {
  const storage::Table* t = db.GetTable(kStock);
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < t->size(); ++s) {
    sum += static_cast<const StockRow*>(t->RowBySlot(s))->ytd;
  }
  return sum;
}

std::uint64_t TpccWorkload::TotalOrdersDelivered(
    const storage::Database& db) const {
  const storage::Table* t = db.GetTable(kDistrict);
  std::uint64_t sum = 0;
  for (std::uint64_t s = 0; s < t->size(); ++s) {
    sum +=
        static_cast<const DistrictRow*>(t->RowBySlot(s))->delivered_o_id - 1;
  }
  return sum;
}

std::uint64_t TpccWorkload::CanonicalDigest(
    const storage::Database& db) const {
  Fnv1a fnv;
  const auto mix = [&fnv](std::uint64_t v) { fnv.Mix(v); };
  // Named columns only: row padding and ring-placement state are not part
  // of the canonical image. Slot order is the (deterministic) load order.
  const storage::Table* warehouse = db.GetTable(kWarehouse);
  for (std::uint64_t s = 0; s < warehouse->size(); ++s) {
    const auto* r = static_cast<const WarehouseRow*>(warehouse->RowBySlot(s));
    mix(r->ytd_cents);
    mix(r->tax_bp);
  }
  const storage::Table* district = db.GetTable(kDistrict);
  for (std::uint64_t s = 0; s < district->size(); ++s) {
    const auto* r = static_cast<const DistrictRow*>(district->RowBySlot(s));
    mix(r->ytd_cents);
    mix(r->tax_bp);
    mix(r->next_o_id);
    mix(r->history_cnt);
    mix(r->delivered_o_id);
  }
  const storage::Table* customer = db.GetTable(kCustomer);
  for (std::uint64_t s = 0; s < customer->size(); ++s) {
    const auto* r = static_cast<const CustomerRow*>(customer->RowBySlot(s));
    mix(static_cast<std::uint64_t>(r->balance_cents));
    mix(r->ytd_payment_cents);
    mix(r->payment_cnt);
    mix(r->last_name_code);
    mix(r->credit_ok);
  }
  const storage::Table* stock = db.GetTable(kStock);
  for (std::uint64_t s = 0; s < stock->size(); ++s) {
    const auto* r = static_cast<const StockRow*>(stock->RowBySlot(s));
    mix(r->quantity);
    mix(r->ytd);
    mix(r->order_cnt);
    mix(r->remote_cnt);
  }
  return fnv.digest();
}

std::uint64_t TpccWorkload::CanonicalRingDigest(
    const storage::Database& db) const {
  // Order-id-independent image of the order rings: which o_id a committed
  // NewOrder drew — hence which slot its record landed in — depends on the
  // commit interleaving, but the *multiset* of order contents per district
  // does not. Hash each live order's content (customer, line count,
  // locality, total, and its order lines) without its o_id or slot, and
  // combine the per-order hashes with a wrapping sum per district (the
  // commutative multiset step); district sums then mix in district order.
  const storage::Table* district = db.GetTable(kDistrict);
  const int cap = aux_->scale.order_ring_capacity;
  const int max_items = aux_->scale.max_items_per_order;
  Fnv1a outer;
  for (std::uint64_t s = 0; s < district->size(); ++s) {
    const auto* dr = static_cast<const DistrictRow*>(district->RowBySlot(s));
    const int ring = static_cast<int>(s);  // district slot order == ring
    const std::uint32_t next = dr->next_o_id;
    const std::uint32_t oldest =
        next > static_cast<std::uint32_t>(cap) ? next - cap : 1;
    std::uint64_t district_sum = 0;
    for (std::uint32_t o = oldest; o < next; ++o) {
      const std::size_t slot = o % static_cast<std::uint32_t>(cap);
      const OrderRec& rec = aux_->orders[ring][slot];
      Fnv1a h;
      h.Mix(rec.c_id);
      h.Mix(rec.ol_cnt);
      h.Mix(rec.all_local);
      h.Mix(rec.total_cents);
      const std::uint32_t lines = std::min<std::uint32_t>(
          rec.ol_cnt, static_cast<std::uint32_t>(max_items));
      for (std::uint32_t j = 0; j < lines; ++j) {
        const OrderLineRec& ol =
            aux_->order_lines[ring][slot * static_cast<std::size_t>(
                                               max_items) +
                                    j];
        h.Mix(ol.i_id);
        h.Mix(ol.supply_w);
        h.Mix(ol.quantity);
        h.Mix(ol.amount_cents);
      }
      district_sum += h.digest();  // wrapping sum: commutative
    }
    outer.Mix(district_sum);
  }
  return outer.digest();
}

}  // namespace orthrus::workload::tpcc
