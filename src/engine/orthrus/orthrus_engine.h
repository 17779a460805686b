// ORTHRUS: the paper's prototype (Section 3).
//
// Functionality is partitioned across cores: `num_cc` cores run *only*
// concurrency control (each owns a disjoint partition of the lock space and
// keeps its lock meta-data strictly core-local), and the remaining cores
// run *only* transaction logic. The two kinds of cores share no data
// structures; they cooperate exclusively through per-pair latch-free SPSC
// message queues (Section 3.1). A CC thread's lock table holds only locks
// with queued requests (cc_lock_table.h), so it stays cache-resident
// however many distinct keys a run touches.
//
// Lock acquisition follows the deadlock-avoidance discipline of Section
// 3.2: a transaction's full lock set is known up front (from analysis or
// OLLP reconnaissance), grouped by owning CC thread, and requested in
// ascending CC-thread order, one CC at a time. With the Section 3.3
// forwarding optimization each CC forwards the transaction directly to the
// next CC in its chain, so a transaction whose locks live on Ncc threads
// costs Ncc+1 messages instead of 2*Ncc; the ablation flag `forwarding`
// turns this off to measure exactly that difference.
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
  // (EngineOptions::num_cores - num_cc) cores execute transactions.
  int num_cc = 4;

  // Maximum transactions an execution thread keeps in flight.
  int max_inflight = 8;

  // Section 3.3 optimization: CC->CC forwarding of lock-acquisition chains.
  bool forwarding = true;

  // Elastic thread roles: make the CC/exec split a *runtime* property.
  // All (num_cores - num_cc) exec threads are spawned, but only a
  // controller-chosen prefix is active; the rest park (runtime::ParkGate)
  // between scheduling quanta. A closed-loop hill climber
  // (engine::ElasticController, run by CC thread 0) reads live per-epoch
  // commit counts and grows or shrinks the active set each epoch. The CC
  // thread count stays fixed — CC threads own lock-space partitions, which
  // cannot be re-sharded in flight. exec->CC traffic moves from the static
  // per-pair QueueMesh onto the dynamic-sender mp::MultiMesh, with the
  // sender register/retire drain-to-empty protocol at every park/resume.
  // Off by default: with elastic=false the engine runs the exact static
  // mesh path (byte-identical digests and sim clocks).
  bool elastic = false;

  // Floor for the active exec-thread count (elastic mode).
  int elastic_min_exec = 1;

  // Controller epoch length in (virtual or wall) seconds: how often the
  // reallocation decision runs.
  double elastic_epoch_seconds = 0.0002;

  // Active exec threads at start; 0 = all spawned exec threads.
  int elastic_initial_exec = 0;

  // Exec threads moved per controller decision.
  int elastic_step = 1;

  // Shards per CC receiver in the dynamic exec->CC mesh; 0 = adaptive
  // (mp::MultiMesh derives the ring count from the registered-sender
  // population, re-sharding future registrations as exec threads park and
  // resume). More shards cut the reservation-CAS and tail-publication
  // contention among exec senders at the cost of more queues for each CC
  // thread to drain.
  int elastic_shards = 0;

  // Elastic CC population (requires elastic=true): lock-space ownership
  // becomes a runtime-remappable layer (lock::SpaceMap). The lock space is
  // split into `cc_partitions` consistent-hash partitions, each owned by
  // one CC slot; the controller becomes the 2-D sweep-and-hold
  // (engine::ElasticController2D) over (cc_count x exec_count), and CC
  // threads above the target park on a runtime::ParkGate after handing
  // their partitions off under the epoch protocol (drain to empty, shard
  // pointer transfer, map version publication). Off by default; with
  // elastic_cc=false the engine routes partition == CC id exactly as the
  // static path always has (byte-identical digests and sim clocks).
  bool elastic_cc = false;

  // Floor for the active CC-thread count (elastic_cc mode). CC 0 runs the
  // controller and never parks, so the floor is at least 1.
  int elastic_min_cc = 1;

  // Lock partitions for elastic_cc mode; 0 = auto (2 * num_cc). More
  // partitions rebalance in finer steps but split transactions into more
  // acquisition stages (more messages per commit). The database
  // partitioner must be configured with this many partitions. Ignored
  // (and forced to num_cc) when elastic_cc is off.
  int cc_partitions = 0;

  // Relative per-epoch throughput change treated as a plateau.
  double elastic_tolerance = 0.05;

  // Use physically partitioned indexes (SPLIT ORTHRUS, Section 4.3). The
  // database must then be loaded with num_table_partitions == num_cc.
  bool split_index = false;

  // Section 3.4's alternative architecture: instead of partitioning the
  // lock space, all CC threads share one latched lock table and any one of
  // them acquires a transaction's complete lock set (in global key order,
  // so deadlock freedom is preserved; a blocked acquisition is continued by
  // whichever CC thread grants the blocking lock). Synchronization exists
  // again — but only among the CC threads, a much smaller set than all
  // cores, which is exactly the trade the paper describes.
  bool shared_cc_table = false;

  // Modeled CPU work a CC thread spends per lock insert/release. Lower
  // than the shared lock table's per-op cost (lock::LockTable::Config):
  // a CC thread's instructions and meta-data stay cache-resident because
  // the thread does nothing else — the cache-locality benefit of
  // partitioned functionality (Section 2.1 / 3.1).
  hal::Cycles cc_op_cycles = 12;

  // Scales the elastic exec->CC mesh capacity relative to its provable
  // bound (1.0 = fully provisioned, never blocks). Values < 1 deliberately
  // under-provision that mesh — and only that mesh; the CC-side meshes CC
  // threads block on stay fully provisioned, so deadlock freedom is
  // unaffected (CC drains exec->CC unconditionally) — to create a real
  // send-stall regime at saturation for backpressure_admission to convert
  // into admission throttling. Bench/ablation use; 1.0 in production.
  double mesh_capacity_factor = 1.0;

  // Backpressure-driven admission (runtime::TxnAdmission::InflightCap):
  // exec threads convert their per-epoch blocking-send stall rate into an
  // AIMD reduction of the in-flight window instead of letting blocking
  // sends spin against full rings. Off by default (fixed window,
  // byte-identical).
  bool backpressure_admission = false;

  // Cap-adjustment window for backpressure_admission, in (virtual) seconds.
  double backpressure_epoch_seconds = 0.0002;

  // Snapshot read path: epoch-versioned storage + CC bypass for read-only
  // transactions. Writers additionally install their committed post-images
  // into two-slot version pairs (storage/table.h) stamped with the global
  // commit epoch; a transaction classified read-only at admission
  // (runtime::TxnAdmission::Classify) then takes zero locks and sends zero
  // CC messages — it copies each row's newest version stamped at or below
  // the stable read epoch straight out of the versioned slabs, inline on
  // its exec thread. Transactions needing OLLP reconnaissance or touching
  // tables with runtime append regions (TPC-C inserts) fall back to the
  // ordinary CC path. Off by default: no version slab is allocated, no
  // epoch is ticked, no cost is charged — sim clocks and equivalence
  // digests stay byte-identical to builds without the feature.
  bool snapshot_reads = false;

  // Commit-epoch advance interval in cycles when snapshot_reads is on and
  // no WAL logger drives the clock; with durability on, the group-commit
  // logger ticks the same clock instead (wal set_epoch_clock) and this
  // knob is unused. Spinner liveness never depends on it (stalled writers
  // and stale readers fold the heartbeat mins directly — EpochClock::
  // FoldMins), so it only trades snapshot staleness against write-path
  // cost: a slower tick keeps repeat installs of a hot row in the
  // same-epoch in-place fast path instead of the copy-and-wait slow path.
  hal::Cycles snapshot_epoch_cycles = 400000;
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

  // Elastic-mode observability for the run that Run() last completed:
  // epochs whose controller decision changed the active exec target, the
  // target in force when the run ended, and the controller's steady-state
  // (hold-phase EWMA) throughput in commits/second — the converged rate
  // with the probing epochs excluded. Zero / num_exec() / 0.0 when the
  // engine ran with elastic=false.
  std::uint64_t reallocations() const { return reallocations_; }
  int final_exec_target() const { return final_exec_target_; }
  double steady_state_throughput() const { return steady_state_throughput_; }

  // elastic_cc observability: CC-population moves (map epochs published)
  // and the CC target in force when the run ended. Zero / num_cc() when
  // the engine ran with elastic_cc=false.
  std::uint64_t cc_reallocations() const { return cc_reallocations_; }
  int final_cc_target() const { return final_cc_target_; }

 private:
  EngineOptions options_;
  OrthrusOptions orthrus_;
  std::uint64_t reallocations_ = 0;
  std::uint64_t cc_reallocations_ = 0;
  int final_exec_target_ = 0;
  int final_cc_target_ = 0;
  double steady_state_throughput_ = 0.0;
};

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_ORTHRUS_ORTHRUS_ENGINE_H_
