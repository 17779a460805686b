// Key-value microbenchmark used throughout the paper's evaluation:
//
//  * Figures 1 and 4 and the YCSB appendix: 10-operation transactions
//    (read-only or read-modify-write) over a single table; high contention
//    picks 2 keys from a small hot set and 8 from the cold remainder, with
//    hot locks acquired first.
//  * Figures 5-7: uniform transactions with controlled partition
//    footprints (all keys on 1 partition, on exactly k partitions, or a
//    configurable percentage of 2-partition transactions).
//
// Keys are record ids; partition of a key is key % num_partitions, so the
// generator can target partitions by sampling residue classes.
#ifndef ORTHRUS_WORKLOAD_MICRO_H_
#define ORTHRUS_WORKLOAD_MICRO_H_

#include <memory>

#include "txn/txn.h"
#include "workload/workload.h"

namespace orthrus::workload {

struct KvConfig {
  std::uint64_t num_records = 100000;
  std::uint32_t row_bytes = 100;
  int ops_per_txn = 10;
  bool read_only = false;

  // Mixed read/write stream: this percentage of transactions are
  // read-only (all-kShared access sets); the rest are RMW.
  // 0 keeps the single-logic streams bit-identical to before the knob
  // existed (no extra rng draw); requires read_only == false.
  int pct_read_only = 0;

  // Contention: 0 = uniform (low contention). Otherwise each transaction
  // takes `hot_ops` distinct keys from [0, hot_records) — acquired first —
  // and the remainder from the cold range.
  std::uint64_t hot_records = 0;
  int hot_ops = 2;

  // Zipfian skew over the whole key space (kUniform placement only;
  // mutually exclusive with hot_records). theta in [0,1): 0 disables.
  // Low key ids are hotter, so with modulo partitioning the skew also
  // imbalances load across lock partitions — the utilization-imbalance
  // scenario Section 3.3 discusses for CC threads.
  double zipf_theta = 0.0;

  // Partition placement.
  enum class Placement {
    kUniform,     // keys uniform over the table (any partition footprint)
    kFixedCount,  // keys constrained to exactly `partitions_per_txn` parts
    kPctMulti,    // `pct_multi`% of txns touch 2 partitions, rest touch 1
  };
  Placement placement = Placement::kUniform;
  int num_partitions = 1;
  int partitions_per_txn = 1;
  int pct_multi = 0;

  // When true, a transaction's first (home) partition is the generating
  // worker's own partition (worker_id % num_partitions) — the H-Store
  // execution model, where single-partition work stays on its owner core.
  // When false the home partition is drawn uniformly (ORTHRUS's CC threads
  // are not execution homes).
  bool local_affinity = false;

  std::uint64_t seed = 42;
};

class KvWorkload final : public Workload {
 public:
  explicit KvWorkload(KvConfig config);
  ~KvWorkload() override;

  void Load(storage::Database* db, int unused) override;
  std::unique_ptr<TxnSource> MakeSource(int worker_id) const override;
  std::string name() const override;

  const KvConfig& config() const { return config_; }

  // Verification: sum of all per-row RMW counters (equals 10x committed
  // transactions for a pure-RMW run). Setup-time only.
  std::uint64_t SumCounters(const storage::Database& db) const;

  static constexpr std::uint32_t kTableId = 0;

 private:
  class Source;
  class RmwLogic;
  class ReadLogic;

  KvConfig config_;
  std::unique_ptr<txn::TxnLogic> logic_;
  std::unique_ptr<txn::TxnLogic> read_logic_;  // non-null iff pct_read_only
};

}  // namespace orthrus::workload

#endif  // ORTHRUS_WORKLOAD_MICRO_H_
