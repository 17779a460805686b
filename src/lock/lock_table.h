// Shared-everything lock manager used by the 2PL and Deadlock-free locking
// baselines. Faithful to the paper's tuned 2PL implementation (Section 4):
//
//  * a hash table of lock-request lists with **per-bucket latches** (no
//    global latch, no intention locks — only record-grained logical locks);
//  * **no memory allocator interaction** on the hot path: request nodes come
//    from per-worker freelists, and a lock head whose queue empties stays in
//    its bucket chain for the next key that hashes there. A worker allocates
//    only when its free list or a bucket's chain runs dry (cold-path growth),
//    so a chain holds at most its bucket's peak number of live locks, however
//    long the run and however many keys it touches;
//  * strict FIFO grant order per lock (no bypassing), which gives
//    starvation freedom and, combined with ordered acquisition, deadlock
//    freedom for the Deadlock-free baseline.
//
// Deadlock handling is pluggable (DeadlockPolicy): wait-die, wait-for
// graph, and Dreadlocks implement the three mechanisms evaluated in
// Section 4.1. The default policy waits forever (correct only under
// ordered acquisition).
#ifndef ORTHRUS_LOCK_LOCK_TABLE_H_
#define ORTHRUS_LOCK_LOCK_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/stats.h"
#include "hal/hal.h"
#include "txn/txn.h"

namespace orthrus::lock {

using txn::Conflicts;
using txn::LockMode;

struct LockHead;
struct Request;
class DeadlockPolicy;

// Per-worker lock-manager state. Stable address for the whole run (other
// workers read the digest / waits-for fields while this worker waits).
struct WorkerLockCtx {
  WorkerLockCtx() = default;
  // Out-of-line: the owned nodes need their complete types to delete.
  ~WorkerLockCtx();

  WorkerLockCtx(const WorkerLockCtx&) = delete;
  WorkerLockCtx& operator=(const WorkerLockCtx&) = delete;

  int worker_id = -1;
  WorkerStats* stats = nullptr;

  // Timestamp ("age") of the currently running transaction; smaller is
  // older. Used by wait-die.
  std::uint64_t txn_timestamp = 0;

  // --- Dreadlocks digest (Koskinen & Herlihy): the transitive closure of
  // the workers this worker waits on, published as a 128-bit set so other
  // waiters can union it without latches.
  hal::Atomic<std::uint64_t> digest_lo{0};
  hal::Atomic<std::uint64_t> digest_hi{0};

  // --- Wait-for graph: since a worker waits on at most one lock at a time,
  // its outgoing wait-for edges are summarized by the single nearest
  // blocking worker; cycle detection is pointer chasing over these cells.
  // Stores the blocker's WorkerLockCtx* (0 when not waiting).
  hal::Atomic<std::uint64_t> waits_for{0};

  // Requests held by the current transaction, for ReleaseAll.
  std::vector<Request*> acquired;

  // Private freelist of request nodes (single owner, no sync). Nodes are
  // owned by `owned_requests` below, so teardown frees them even if a test
  // leaves requests queued.
  Request* free_requests = nullptr;
  std::vector<std::unique_ptr<Request>> owned_requests;

  // Lock heads this worker allocated. They live in bucket chains and serve
  // every worker; the owner only frees them at teardown.
  std::vector<std::unique_ptr<LockHead>> owned_heads;

  // While blocked: the request being waited on and the nearest conflicting
  // blocker's context (advisory; may go stale and is refreshed during the
  // wait loop).
  Request* waiting_request = nullptr;
  WorkerLockCtx* blocker = nullptr;
};

// One queued lock request. Queue linkage is protected by the bucket latch;
// `granted` is written by releasers and spun on by the owner.
struct Request {
  WorkerLockCtx* owner = nullptr;
  LockHead* head = nullptr;
  Request* next = nullptr;
  Request* prev = nullptr;
  std::uint64_t owner_ts = 0;  // owner's txn timestamp at enqueue
  LockMode mode = LockMode::kShared;
  hal::Atomic<std::uint32_t> granted{0};
};

// Lock state for one (table, key), or vacant (queued_total == 0). A vacant
// head stays in its bucket chain and takes the next key that hashes to its
// bucket, so (table, key) only changes under the bucket latch while no
// request is queued. Anyone holding a queued request on a head may read its
// (table, key) without the latch.
struct LockHead {
  std::uint32_t table = 0;
  std::uint64_t key = 0;
  Request* queue_head = nullptr;
  Request* queue_tail = nullptr;
  LockHead* next_in_bucket = nullptr;
  // Queue composition counters: make the arrival grant check O(1) and the
  // release grant sweep a single early-terminating pass. (S is grantable
  // iff no X is queued ahead; X iff nothing is ahead.)
  std::uint32_t queued_total = 0;
  std::uint32_t queued_x = 0;
};

class LockTable {
 public:
  struct Config {
    std::uint64_t num_buckets = 1 << 16;  // rounded up to a power of two
    int max_workers = 128;
    // Fixed CPU work per acquire/release. Includes the instruction- and
    // data-cache refetches a worker pays because lock-manager code and
    // meta-data evict transaction-logic lines (and vice versa) — the cache
    // pollution cost of conflated functionality (Section 2.1).
    hal::Cycles lock_op_cycles = 35;
    // Cost of touching one queued request node while holding the bucket
    // latch. Queue nodes are written by the cores that own them, so walking
    // a contended lock's queue ping-pongs their lines; this is the
    // data-movement overhead of Section 2.1, and it makes latch hold times
    // grow with contention (the feedback loop behind Figure 1's collapse).
    hal::Cycles node_touch_cycles = 40;
  };

  enum class AcquireResult {
    kGranted,  // lock held
    kWaiting,  // request enqueued; call Wait()
    kDie,      // policy aborted the transaction at request time (wait-die)
  };

  explicit LockTable(Config config);
  ~LockTable();

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // Registers worker `id` and returns its context. Call once per worker
  // before the run starts.
  WorkerLockCtx* RegisterWorker(int id, WorkerStats* stats);

  // Requests a lock for ctx's current transaction. On kWaiting the request
  // is queued FIFO; the caller must invoke Wait() next.
  AcquireResult Acquire(WorkerLockCtx* ctx, std::uint32_t table,
                        std::uint64_t key, LockMode mode,
                        DeadlockPolicy* policy);

  // Blocks (spins) until the pending request is granted. Returns false if
  // the policy detected a deadlock; the request has then been removed and
  // the caller must release all held locks and restart the transaction.
  bool Wait(WorkerLockCtx* ctx, DeadlockPolicy* policy);

  // Releases every lock held by ctx's current transaction, waking queued
  // waiters that become grantable.
  void ReleaseAll(WorkerLockCtx* ctx);

  // Number of locks ctx currently holds.
  std::size_t HeldCount(const WorkerLockCtx* ctx) const {
    return ctx->acquired.size();
  }

  // Re-resolves the nearest conflicting blocker of a waiting request
  // (policies call this periodically so detection follows queue changes).
  void RefreshBlocker(WorkerLockCtx* ctx);

  const Config& config() const { return config_; }
  // Lock heads allocated by all workers so far. Reads every worker's
  // context: call only while no worker runs.
  std::uint64_t lock_heads_allocated() const;

 private:
  struct alignas(kCacheLineSize) Bucket {
    hal::SpinLock latch;
    LockHead* heads ORTHRUS_GUARDED_BY(latch) = nullptr;
  };

  Bucket* BucketFor(std::uint32_t table, std::uint64_t key);
  // Finds the key's lock head, else relabels the chain's first vacant head,
  // else allocates one into ctx; bucket latch must be held.
  LockHead* FindOrCreateHead(WorkerLockCtx* ctx, Bucket* b,
                             std::uint32_t table, std::uint64_t key)
      ORTHRUS_REQUIRES(b->latch);
  // True iff no conflicting request precedes `req` in its queue (O(q);
  // used by detection logic and debug checks — the grant paths use the
  // LockHead counters instead).
  bool NoConflictAhead(const Request* req) const;
  // Nearest conflicting request ahead of req, or nullptr.
  static Request* NearestBlockerOf(Request* req);
  // Grants every newly-grantable waiter in the queue, charging node-touch
  // cost per request walked. Latch must be held.
  void GrantFollowers(LockHead* head);
  // Removes req from its queue and recycles it. Latch must be held.
  void Unlink(LockHead* head, Request* req);

  Request* AllocRequest(WorkerLockCtx* ctx);
  void FreeRequest(WorkerLockCtx* ctx, Request* req);

  Config config_;
  std::uint64_t bucket_mask_;
  std::unique_ptr<Bucket[]> buckets_;
  std::vector<std::unique_ptr<WorkerLockCtx>> workers_;
};

// ---------------------------------------------------------------------
// Deadlock policies (Section 4.1).

class DeadlockPolicy {
 public:
  virtual ~DeadlockPolicy() = default;

  // Called under the bucket latch when `req` has conflicting requests
  // ahead. Returns false to abort the requesting transaction immediately
  // (wait-die's "die"); the lock table then unlinks the request.
  virtual bool OnBlock(WorkerLockCtx* /*me*/, Request* /*req*/) {
    return true;
  }

  // Spin until req->granted, running detection logic. Returns false when a
  // deadlock involving `me` was detected (the caller unlinks and aborts).
  // The default is a pure FIFO wait that never aborts — safe only when the
  // caller guarantees deadlock freedom by ordered acquisition.
  virtual bool WaitForGrant(WorkerLockCtx* me, Request* req,
                            LockTable* table);

  // Cleanup after a wait ends (granted or aborted).
  virtual void OnWaitEnd(WorkerLockCtx* /*me*/) {}

  virtual const char* name() const { return "fifo-wait"; }
};

// Wait-die (Section 4.1): a requester may wait only on strictly older
// transactions; otherwise it dies (aborts) immediately. Timestamps are
// assigned per transaction and retained across restarts.
class WaitDiePolicy : public DeadlockPolicy {
 public:
  bool OnBlock(WorkerLockCtx* me, Request* req) override;
  const char* name() const override { return "wait-die"; }
};

// Wait-for graph deadlock detection (Section 4.1, Yu et al. style): each
// worker owns its local edge; detection chases edges without latches and
// aborts the requester when the chase returns to it.
class WaitForGraphPolicy : public DeadlockPolicy {
 public:
  explicit WaitForGraphPolicy(int max_workers) : max_workers_(max_workers) {}
  bool OnBlock(WorkerLockCtx* me, Request* req) override;
  bool WaitForGrant(WorkerLockCtx* me, Request* req,
                    LockTable* table) override;
  void OnWaitEnd(WorkerLockCtx* me) override;
  const char* name() const override { return "wait-for-graph"; }

 private:
  int max_workers_;
};

// Dreadlocks (Koskinen & Herlihy, Section 4.1): each worker publishes a
// digest — the transitive closure of workers it waits on, as a bitmap. A
// waiter unions its blocker's digest into its own; finding itself in the
// blocker's digest means a cycle.
class DreadlocksPolicy : public DeadlockPolicy {
 public:
  bool OnBlock(WorkerLockCtx* me, Request* req) override;
  bool WaitForGrant(WorkerLockCtx* me, Request* req,
                    LockTable* table) override;
  void OnWaitEnd(WorkerLockCtx* me) override;
  const char* name() const override { return "dreadlocks"; }
};

}  // namespace orthrus::lock

#endif  // ORTHRUS_LOCK_LOCK_TABLE_H_
