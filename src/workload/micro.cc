#include "workload/micro.h"

#include <cstring>

#include "common/rng.h"

namespace orthrus::workload {

namespace {

// Parameters materialized per transaction.
struct KvParams {
  static constexpr int kMaxOps = 16;
  int n_ops = 0;
  std::uint64_t keys[kMaxOps];
};

// Number of record ids congruent to `residue` (mod n) in [0, count).
std::uint64_t ResidueCount(std::uint64_t count, int n, int residue) {
  const std::uint64_t r = static_cast<std::uint64_t>(residue);
  if (r >= count) return 0;
  return (count - r + static_cast<std::uint64_t>(n) - 1) /
         static_cast<std::uint64_t>(n);
}

}  // namespace

// --------------------------------------------------------------- logic

class KvWorkload::RmwLogic final : public txn::TxnLogic {
 public:
  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const KvParams* p = t->Params<KvParams>();
    t->accesses.reserve(p->n_ops);
    for (int i = 0; i < p->n_ops; ++i) {
      t->accesses.push_back({kTableId, txn::LockMode::kExclusive, p->keys[i],
                             nullptr});
    }
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    storage::Table* table = ctx.db->GetTable(kTableId);
    const hal::Cycles op_cost =
        table->RowAccessCost() + table->cost_model().op_compute_cycles;
    for (const txn::Access& a : t->accesses) {
      ctx.ChargeOp(op_cost);
      // Read-modify-write: bump the row's op counter (verifiable effect)
      // and fold a byte of payload so reads are not dead code.
      std::uint64_t* row = static_cast<std::uint64_t*>(a.row);
      hal::RaceCheck(row, 2 * sizeof(std::uint64_t), /*is_write=*/true,
                     "kv.row");
      row[0] += 1;
      row[1] ^= a.key;
    }
    return true;
  }
};

class KvWorkload::ReadLogic final : public txn::TxnLogic {
 public:
  void BuildAccessSet(txn::Txn* t, storage::Database* /*db*/) override {
    const KvParams* p = t->Params<KvParams>();
    t->accesses.reserve(p->n_ops);
    for (int i = 0; i < p->n_ops; ++i) {
      t->accesses.push_back({kTableId, txn::LockMode::kShared, p->keys[i],
                             nullptr});
    }
  }

  bool Run(txn::Txn* t, const txn::ExecContext& ctx) override {
    storage::Table* table = ctx.db->GetTable(kTableId);
    const hal::Cycles op_cost =
        table->RowAccessCost() + table->cost_model().op_compute_cycles;
    std::uint64_t sink = 0;
    for (const txn::Access& a : t->accesses) {
      ctx.ChargeOp(op_cost);
      const std::uint64_t* row = static_cast<const std::uint64_t*>(a.row);
      hal::RaceCheck(&row[1], sizeof(std::uint64_t), /*is_write=*/false,
                     "kv.row");
      sink ^= row[1];
    }
    KeepValue(sink);
    return true;
  }
};

// --------------------------------------------------------------- source

class KvWorkload::Source final : public TxnSource {
 public:
  Source(const KvConfig& config, txn::TxnLogic* logic,
         txn::TxnLogic* read_logic, int worker_id)
      : config_(config),
        logic_(logic),
        read_logic_(read_logic),
        rng_(config.seed * 0x9E3779B97F4A7C15ull + 0xABCD + worker_id),
        worker_id_(worker_id) {
    if (config_.zipf_theta > 0.0) {
      zipf_ = std::make_unique<ZipfianGenerator>(config_.num_records,
                                                 config_.zipf_theta);
    }
  }

  void Next(txn::Txn* t) override {
    t->ResetForReuse();
    // Mixed streams draw the transaction kind first; pure streams skip the
    // draw entirely so their key sequences stay bit-identical to builds
    // without the pct_read_only knob.
    t->logic =
        read_logic_ != nullptr &&
                rng_.Percent(static_cast<unsigned>(config_.pct_read_only))
            ? read_logic_
            : logic_;
    KvParams* p = t->Params<KvParams>();
    p->n_ops = config_.ops_per_txn;
    ORTHRUS_CHECK(config_.ops_per_txn <= KvParams::kMaxOps);

    switch (config_.placement) {
      case KvConfig::Placement::kUniform:
        FillUniform(p);
        break;
      case KvConfig::Placement::kFixedCount:
        FillPartitioned(p, config_.partitions_per_txn);
        break;
      case KvConfig::Placement::kPctMulti:
        FillPartitioned(
            p, rng_.Percent(static_cast<unsigned>(config_.pct_multi)) ? 2 : 1);
        break;
    }
  }

 private:
  // Hot/cold split over the whole key space (used by kUniform) or within a
  // partition's residue class.
  void FillUniform(KvParams* p) {
    const std::uint64_t n = config_.num_records;
    const std::uint64_t hot = config_.hot_records;
    int i = 0;
    if (hot > 0) {
      for (int h = 0; h < config_.hot_ops; ++h) {
        p->keys[i] = DistinctDraw(p, i, 0, hot);
        ++i;
      }
    }
    for (; i < p->n_ops; ++i) {
      p->keys[i] = DistinctDraw(p, i, hot, n);
    }
  }

  // Constrains all keys to exactly `k` partitions (residue classes).
  void FillPartitioned(KvParams* p, int k) {
    const int parts = config_.num_partitions;
    ORTHRUS_DCHECK(k >= 1 && k <= parts);
    ORTHRUS_DCHECK(k <= p->n_ops);
    int chosen[KvParams::kMaxOps];
    chosen[0] = config_.local_affinity
                    ? worker_id_ % parts
                    : static_cast<int>(rng_.NextU64(parts));
    for (int j = 1; j < k; ++j) {
      bool dup = true;
      while (dup) {
        chosen[j] = static_cast<int>(rng_.NextU64(parts));
        dup = false;
        for (int m = 0; m < j; ++m) dup |= (chosen[m] == chosen[j]);
      }
    }
    // Every chosen partition receives at least one key; remaining ops are
    // spread round-robin so a k-partition transaction really touches k.
    const std::uint64_t hot = config_.hot_records;
    for (int i = 0; i < p->n_ops; ++i) {
      const int part = chosen[i % k];
      const bool is_hot = hot > 0 && i < config_.hot_ops;
      p->keys[i] = DrawInPartition(p, i, part, is_hot);
    }
  }

  // Distinct uniform draw from id range [lo, hi). When Zipfian skew is
  // configured and the draw spans the whole table (no hot/cold split), the
  // draw is Zipfian instead.
  std::uint64_t DistinctDraw(KvParams* p, int filled, std::uint64_t lo,
                             std::uint64_t hi) {
    ORTHRUS_DCHECK(hi > lo);
    while (true) {
      const std::uint64_t k =
          (zipf_ != nullptr && lo == 0 && hi == config_.num_records)
              ? zipf_->Next(&rng_)
              : rng_.NextInRange(lo, hi - 1);
      if (IsFresh(p, filled, k)) return k;
    }
  }

  // Distinct draw of a key in partition `part` (key % parts == part), from
  // the hot range when is_hot, else from the cold range.
  std::uint64_t DrawInPartition(KvParams* p, int filled, int part,
                                bool is_hot) {
    const int parts = config_.num_partitions;
    const std::uint64_t hot = config_.hot_records;
    while (true) {
      std::uint64_t k;
      if (is_hot) {
        const std::uint64_t count = ResidueCount(hot, parts, part);
        ORTHRUS_CHECK_MSG(count > 0, "hot set too small for partition count");
        k = static_cast<std::uint64_t>(part) +
            rng_.NextU64(count) * static_cast<std::uint64_t>(parts);
      } else {
        // Cold ids are [hot, n). Draw over the partition's full residue
        // class and reject ids that fall in the hot prefix.
        const std::uint64_t count =
            ResidueCount(config_.num_records, parts, part);
        k = static_cast<std::uint64_t>(part) +
            rng_.NextU64(count) * static_cast<std::uint64_t>(parts);
        if (hot > 0 && k < hot) continue;
      }
      if (IsFresh(p, filled, k)) return k;
    }
  }

  // True iff k differs from the `filled` keys already placed in p->keys.
  static bool IsFresh(const KvParams* p, int filled, std::uint64_t k) {
    for (int m = 0; m < filled; ++m) {
      if (p->keys[m] == k) return false;
    }
    return true;
  }

  KvConfig config_;
  txn::TxnLogic* logic_;
  txn::TxnLogic* read_logic_;
  Rng rng_;
  int worker_id_;
  std::unique_ptr<ZipfianGenerator> zipf_;
};

// ------------------------------------------------------------- workload

KvWorkload::KvWorkload(KvConfig config) : config_(config) {
  ORTHRUS_CHECK(config_.ops_per_txn <= KvParams::kMaxOps);
  ORTHRUS_CHECK(config_.hot_ops <= config_.ops_per_txn);
  if (config_.zipf_theta > 0.0) {
    ORTHRUS_CHECK_MSG(config_.hot_records == 0,
                      "zipfian skew and hot/cold split are exclusive");
    ORTHRUS_CHECK_MSG(config_.placement == KvConfig::Placement::kUniform,
                      "zipfian skew requires uniform placement");
  }
  if (config_.hot_records > 0) {
    ORTHRUS_CHECK(config_.hot_records < config_.num_records);
  }
  if (config_.read_only) {
    logic_ = std::make_unique<ReadLogic>();
  } else {
    logic_ = std::make_unique<RmwLogic>();
  }
  if (config_.pct_read_only > 0) {
    ORTHRUS_CHECK_MSG(!config_.read_only,
                      "pct_read_only mixes reads into an RMW stream; a "
                      "read-only stream has nothing to mix");
    ORTHRUS_CHECK(config_.pct_read_only <= 100);
    read_logic_ = std::make_unique<ReadLogic>();
  }
}

KvWorkload::~KvWorkload() = default;

std::string KvWorkload::name() const {
  std::string n = config_.read_only ? "kv-read" : "kv-rmw";
  if (config_.pct_read_only > 0) {
    n += "-r" + std::to_string(config_.pct_read_only);
  }
  if (config_.hot_records > 0) {
    n += "-hot" + std::to_string(config_.hot_records);
  }
  return n;
}

void KvWorkload::Load(storage::Database* db, int /*unused*/) {
  // The run-time partition universe (lock routing for ORTHRUS, data routing
  // for Partitioned-store, key targeting for the generator) is
  // config_.num_partitions.
  db->partitioner().n = config_.num_partitions;
  db->partitioner().mode = storage::Partitioner::Mode::kModulo;
  storage::Table* table = db->CreateTable(kTableId, "kv", config_.num_records,
                                          config_.row_bytes);
  for (std::uint64_t k = 0; k < config_.num_records; ++k) {
    std::uint64_t* row = static_cast<std::uint64_t*>(table->Insert(k));
    row[0] = 0;                // RMW counter
    row[1] = k * 2654435761u;  // payload word
  }
}

std::unique_ptr<TxnSource> KvWorkload::MakeSource(int worker_id) const {
  return std::make_unique<Source>(config_, logic_.get(), read_logic_.get(),
                                  worker_id);
}

std::uint64_t KvWorkload::SumCounters(const storage::Database& db) const {
  const storage::Table* table = db.GetTable(kTableId);
  std::uint64_t sum = 0;
  for (std::uint64_t slot = 0; slot < table->size(); ++slot) {
    sum += static_cast<const std::uint64_t*>(table->RowBySlot(slot))[0];
  }
  return sum;
}

}  // namespace orthrus::workload
