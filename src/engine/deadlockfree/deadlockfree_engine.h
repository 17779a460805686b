// "Deadlock free locking" baseline (Sections 3.2 and 4): conventional
// shared-everything 2PL *except* that each transaction's read/write set is
// known before execution (via analysis or OLLP reconnaissance) and all
// locks are acquired in a canonical global order in advance of execution.
// Ordered acquisition over FIFO queues makes deadlock impossible, so no
// deadlock-handling logic runs at all — isolating the cost of deadlock
// handling from the cost of lock management itself.
#ifndef ORTHRUS_ENGINE_DEADLOCKFREE_DEADLOCKFREE_ENGINE_H_
#define ORTHRUS_ENGINE_DEADLOCKFREE_DEADLOCKFREE_ENGINE_H_

#include "engine/engine.h"
#include "lock/lock_table.h"

namespace orthrus::engine {

class DeadlockFreeEngine final : public Engine {
 public:
  explicit DeadlockFreeEngine(EngineOptions options) : options_(options) {}

  RunResult Run(hal::Platform* platform, storage::Database* db,
                const workload::Workload& workload) override;
  std::string name() const override { return "deadlock-free"; }

 private:
  EngineOptions options_;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_DEADLOCKFREE_DEADLOCKFREE_ENGINE_H_
