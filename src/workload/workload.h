// Workload abstraction: loads data and produces per-worker transaction
// streams. Sources are deterministic functions of (workload seed, worker
// id), so runs are reproducible across engines and platforms.
#ifndef ORTHRUS_WORKLOAD_WORKLOAD_H_
#define ORTHRUS_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>

#include "storage/database.h"
#include "txn/txn.h"

namespace orthrus::workload {

// Per-worker transaction stream. Next() fills parameters and logic; the
// engine then plans the access set (txn::OllpPlan), which may involve
// reconnaissance reads.
class TxnSource {
 public:
  virtual ~TxnSource() = default;
  virtual void Next(txn::Txn* t) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Populates `db` with tables and rows and configures its partitioner.
  // The `int` is unused: it is kept only because bench/oltp's probe
  // wrapper overrides this signature.
  virtual void Load(storage::Database* db, int unused) = 0;

  virtual std::unique_ptr<TxnSource> MakeSource(int worker_id) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace orthrus::workload

#endif  // ORTHRUS_WORKLOAD_WORKLOAD_H_
