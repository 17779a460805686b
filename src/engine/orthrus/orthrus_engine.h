// ORTHRUS: the paper's prototype (Section 3).
//
// Functionality is partitioned across cores: `num_cc` cores run *only*
// concurrency control (each owns a disjoint partition of the lock space and
// keeps its lock meta-data strictly core-local), and the remaining cores
// run *only* transaction logic. The two kinds of cores share no data
// structures; they cooperate exclusively through per-pair latch-free SPSC
// message queues (Section 3.1). The only word the stages share outside
// those rings is `execs_done`, which each exec thread bumps once, on exit,
// and which the CC threads read to stop. A CC thread's lock table holds
// only locks with queued requests (cc_lock_table.h), so it stays
// cache-resident however many distinct keys a run touches.
//
// Lock acquisition follows the deadlock-avoidance discipline of Section
// 3.2: a transaction's full lock set is known up front (from analysis or
// OLLP reconnaissance), grouped by owning CC thread, and requested in
// ascending CC-thread order, one CC at a time. Following the Section 3.3
// forwarding optimization, each CC forwards the transaction directly to
// the next CC in its chain, so a transaction whose locks live on Ncc
// threads costs Ncc+1 messages instead of 2*Ncc.
//
// Execution threads are asynchronous (Section 3.3): each keeps a bounded
// window of in-flight transactions, starting new ones instead of blocking
// on lock grants. Lock releases are messages too, and are acknowledged
// immediately by CC threads (as in the paper); a transaction's slot is
// recycled once all its release acks arrive.
//
// Every acquire, grant, release and ack is enqueued the moment the protocol
// produces it. Holding messages until the sender's scheduling quantum ends
// would make the CC and exec stages run in lock-step: natively that left
// exec threads idle a third of the time with a full in-flight window.
#ifndef ORTHRUS_ENGINE_ORTHRUS_ORTHRUS_ENGINE_H_
#define ORTHRUS_ENGINE_ORTHRUS_ORTHRUS_ENGINE_H_

#include "engine/engine.h"

namespace orthrus::engine {

struct OrthrusOptions {
  // Cores devoted to concurrency control; the remaining
  // (EngineOptions::num_cores - num_cc) cores execute transactions. The
  // split is fixed for the run. CC thread c owns lock partition c.
  int num_cc = 4;

  // Maximum transactions an execution thread keeps in flight.
  int max_inflight = 8;
};

class OrthrusEngine final : public Engine {
 public:
  OrthrusEngine(EngineOptions options, OrthrusOptions orthrus);

  RunResult Run(hal::Platform* platform, storage::Database* db,
                const workload::Workload& workload) override;
  std::string name() const override;

  int num_cc() const { return orthrus_.num_cc; }
  int num_exec() const { return options_.num_cores - orthrus_.num_cc; }

  // Worker-id layout inside RunResult::per_worker: CC threads first.
  bool IsCcWorker(int worker_id) const { return worker_id < orthrus_.num_cc; }

 private:
  EngineOptions options_;
  OrthrusOptions orthrus_;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_ORTHRUS_ORTHRUS_ENGINE_H_
