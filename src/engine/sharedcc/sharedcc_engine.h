// The fifth architecture: shared-CC everywhere.
//
// A design point between ORTHRUS and the shared-everything baselines that
// the paper's Section 3.4 discussion implies but never builds: keep the
// *partitioned lock metadata* (each lock lives in exactly one lock-space
// partition, so its state stays compact and cache-friendly, priced with
// ORTHRUS's cheap per-op cost), but drop the dedicated CC threads and the
// message passing. Every core is both CC and exec: it acquires its own
// transaction's locks directly from the partition shards, synchronizing
// with other cores through one spin latch per partition — synchronization
// exists again, but only among cores touching the same partition at the
// same instant, not on a global structure. Acquisition is ordered by
// (partition, table, key) over the pre-declared access set, so the FIFO
// queues can never deadlock and no deadlock policy is needed.
//
// The whole architecture is a ~100-line runtime::ExecutionStrategy over
// the shared transaction runtime (admission, OLLP planning, replanning,
// accounting all reused), which is exactly the point of that layer.
#ifndef ORTHRUS_ENGINE_SHAREDCC_SHAREDCC_ENGINE_H_
#define ORTHRUS_ENGINE_SHAREDCC_SHAREDCC_ENGINE_H_

#include "engine/engine.h"

namespace orthrus::engine {

class SharedCcEngine final : public Engine {
 public:
  explicit SharedCcEngine(EngineOptions options) : options_(options) {}

  RunResult Run(hal::Platform* platform, storage::Database* db,
                const workload::Workload& workload) override;
  std::string name() const override { return "sharedcc-everywhere"; }

 private:
  EngineOptions options_;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_SHAREDCC_SHAREDCC_ENGINE_H_
