// TPC-C database population. Deterministic given TpccScale::seed.
#include "common/rng.h"
#include "workload/tpcc/tpcc_workload.h"

namespace orthrus::workload::tpcc {

void LoadTpccDatabase(storage::Database* db, TpccAux* aux) {
  const TpccScale& s = aux->scale;
  db->partitioner().mode = storage::Partitioner::Mode::kWarehouseHigh32;
  // The caller overrides `n` to the engine's partition count.
  db->partitioner().n = 1;

  Rng rng(s.seed);
  const std::uint32_t pad = s.row_padding;
  const int w_count = s.warehouses;
  const int d_count = s.districts_per_warehouse;
  const int c_count = s.customers_per_district;

  storage::Table* warehouse = db->CreateTable(
      kWarehouse, "warehouse", w_count, sizeof(WarehouseRow) + pad);
  storage::Table* district =
      db->CreateTable(kDistrict, "district",
                      static_cast<std::uint64_t>(w_count) * d_count,
                      sizeof(DistrictRow) + pad);
  storage::Table* customer = db->CreateTable(
      kCustomer, "customer",
      static_cast<std::uint64_t>(w_count) * d_count * c_count,
      sizeof(CustomerRow) + pad);
  storage::Table* stock =
      db->CreateTable(kStock, "stock",
                      static_cast<std::uint64_t>(w_count) * s.items,
                      sizeof(StockRow) + pad);
  storage::Table* item =
      db->CreateTable(kItem, "item", s.items, sizeof(ItemRow) + pad);

  for (int i = 0; i < s.items; ++i) {
    ItemRow* row = static_cast<ItemRow*>(item->Insert(ItemKey(i)));
    row->price_cents = static_cast<std::uint32_t>(rng.NextInRange(100, 10000));
    row->name_hash = static_cast<std::uint32_t>(rng.Next());
  }

  for (int w = 0; w < w_count; ++w) {
    WarehouseRow* wr =
        static_cast<WarehouseRow*>(warehouse->Insert(WarehouseKey(w)));
    wr->ytd_cents = 0;
    wr->tax_bp = static_cast<std::uint32_t>(rng.NextU64(2001));

    for (int i = 0; i < s.items; ++i) {
      const std::uint64_t key = StockKey(w, i);
      StockRow* sr = static_cast<StockRow*>(stock->Insert(key));
      sr->quantity = TpccWorkload::kInitialStockQuantity;
      sr->ytd = 0;
      sr->order_cnt = 0;
      sr->remote_cnt = 0;
    }

    for (int d = 0; d < d_count; ++d) {
      const std::uint64_t dkey = DistrictKey(w, d);
      DistrictRow* dr = static_cast<DistrictRow*>(district->Insert(dkey));
      dr->ytd_cents = 0;
      dr->tax_bp = static_cast<std::uint32_t>(rng.NextU64(2001));
      dr->next_o_id = 1;
      dr->history_cnt = 0;
      dr->delivered_o_id = 1;

      for (int c = 0; c < c_count; ++c) {
        const std::uint64_t ckey = CustomerKey(w, d, c);
        CustomerRow* cr = static_cast<CustomerRow*>(customer->Insert(ckey));
        cr->balance_cents = 0;
        cr->ytd_payment_cents = 0;
        cr->payment_cnt = 0;
        // Deterministic last-name assignment: code = c mod effective-names.
        // Guarantees every code in [0, effective) exists in every district,
        // so generators can draw codes without consulting the database, and
        // posting lists stay multi-customer as in the spec.
        const int effective_names = std::min(s.last_names, c_count);
        cr->last_name_code = static_cast<std::uint32_t>(c % effective_names);
        cr->credit_ok = rng.Percent(90) ? 1 : 0;
        aux->customers_by_name.Add(LastNameAttr(w, d, cr->last_name_code),
                                   ckey);
      }
    }
  }
  aux->customers_by_name.Finalize();

  // Append rings.
  const int rings = w_count * d_count;
  aux->orders.assign(rings, std::vector<OrderRec>(s.order_ring_capacity));
  aux->order_lines.assign(
      rings, std::vector<OrderLineRec>(
                 static_cast<std::size_t>(s.order_ring_capacity) *
                 s.max_items_per_order));
  aux->history.assign(rings,
                      std::vector<HistoryRec>(s.order_ring_capacity));

  // Seeded undelivered orders (see TpccScale::seeded_orders): fill ring
  // slots [1, seeded] of every district with deterministic order content
  // and advance next_o_id past them; delivered_o_id stays at 1, so
  // Delivery consumes these load-time orders first.
  if (s.seeded_orders > 0) {
    ORTHRUS_CHECK_MSG(s.seeded_orders < s.order_ring_capacity,
                      "seeded orders must fit the order ring");
    for (int w = 0; w < w_count; ++w) {
      for (int d = 0; d < d_count; ++d) {
        auto* dr = static_cast<DistrictRow*>(
            db->GetTable(kDistrict)->Lookup(DistrictKey(w, d)));
        dr->next_o_id = 1 + static_cast<std::uint32_t>(s.seeded_orders);
        const int ring = aux->DistrictIndex(w, d);
        for (int o = 1; o <= s.seeded_orders; ++o) {
          OrderRec& rec =
              aux->orders[ring][o % s.order_ring_capacity];
          rec.o_id = static_cast<std::uint32_t>(o);
          rec.c_id = static_cast<std::uint32_t>(rng.NextU64(c_count));
          // Clamp to the configured line stride: the ring's line storage
          // has exactly max_items_per_order slots per order.
          const std::uint64_t max_lines = static_cast<std::uint64_t>(
              std::min(15, s.max_items_per_order));
          rec.ol_cnt = static_cast<std::uint32_t>(
              rng.NextInRange(std::min<std::uint64_t>(5, max_lines),
                              max_lines));
          rec.all_local = 1;
          rec.total_cents = 0;
          for (std::uint32_t j = 0; j < rec.ol_cnt; ++j) {
            OrderLineRec& ol =
                aux->order_lines[ring]
                                [static_cast<std::size_t>(
                                     o % s.order_ring_capacity) *
                                     s.max_items_per_order +
                                 j];
            ol.i_id = static_cast<std::uint32_t>(rng.NextU64(s.items));
            ol.supply_w = static_cast<std::uint32_t>(w);
            ol.quantity = static_cast<std::uint32_t>(rng.NextInRange(1, 10));
            const auto* ir = static_cast<const ItemRow*>(
                item->Lookup(ItemKey(static_cast<int>(ol.i_id))));
            ol.amount_cents = ol.quantity * ir->price_cents;
            rec.total_cents += ol.amount_cents;
          }
        }
      }
    }
  }
}

}  // namespace orthrus::workload::tpcc
