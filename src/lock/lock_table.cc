#include "lock/lock_table.h"

namespace orthrus::lock {

LockTable::LockTable(Config config) : config_(config) {
  const std::uint64_t n = NextPowerOfTwo(config_.num_buckets);
  config_.num_buckets = n;
  bucket_mask_ = n - 1;
  buckets_ = std::make_unique<Bucket[]>(n);  // lint:allow-alloc setup
  workers_.resize(config_.max_workers);
}

LockTable::~LockTable() = default;

WorkerLockCtx::~WorkerLockCtx() = default;

WorkerLockCtx* LockTable::RegisterWorker(int id, WorkerStats* stats) {
  ORTHRUS_CHECK(id >= 0 && id < config_.max_workers);
  ORTHRUS_CHECK_MSG(workers_[id] == nullptr, "worker registered twice");
  workers_[id] = std::make_unique<WorkerLockCtx>();  // lint:allow-alloc setup
  WorkerLockCtx* ctx = workers_[id].get();
  ctx->worker_id = id;
  ctx->stats = stats;
  ctx->acquired.reserve(64);
  return ctx;
}

LockTable::Bucket* LockTable::BucketFor(std::uint32_t table,
                                        std::uint64_t key) {
  std::uint64_t h = (key ^ (static_cast<std::uint64_t>(table) << 56)) *
                    0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return &buckets_[h & bucket_mask_];
}

LockHead* LockTable::FindOrCreateHead(WorkerLockCtx* ctx, Bucket* b,
                                      std::uint32_t table,
                                      std::uint64_t key) {
  // The chain holds at most one head per (table, key): a vacant head takes
  // a new key only after the whole chain was searched for that key.
  LockHead* vacant = nullptr;
  for (LockHead* h = b->heads; h != nullptr; h = h->next_in_bucket) {
    if (h->key == key && h->table == table) return h;
    if (vacant == nullptr && h->queued_total == 0) vacant = h;
  }
  if (vacant == nullptr) {
    // Cold path: the bucket has more live locks than ever before. Bounded
    // by the bucket's peak number of simultaneously live locks.
    // lint:allow-alloc cold path: chain growth, bounded by peak live locks
    ctx->owned_heads.push_back(std::make_unique<LockHead>());
    vacant = ctx->owned_heads.back().get();
    vacant->next_in_bucket = b->heads;
    b->heads = vacant;
  }
  vacant->table = table;
  vacant->key = key;
  return vacant;
}

bool LockTable::NoConflictAhead(const Request* req) const {
  for (const Request* r = req->prev; r != nullptr; r = r->prev) {
    hal::ConsumeCycles(config_.node_touch_cycles);
    if (Conflicts(req->mode, r->mode)) return false;
  }
  return true;
}

Request* LockTable::NearestBlockerOf(Request* req) {
  for (Request* r = req->prev; r != nullptr; r = r->prev) {
    if (Conflicts(req->mode, r->mode)) return r;
  }
  return nullptr;
}

void LockTable::GrantFollowers(LockHead* head) {
  // Single pass: track whether any exclusive request precedes the cursor;
  // once a request stays ungrantable, everything behind it is blocked by
  // the same (or more) predecessors, so the sweep stops.
  bool x_seen = false;
  for (Request* r = head->queue_head; r != nullptr; r = r->next) {
    hal::ConsumeCycles(config_.node_touch_cycles);
    if (r->granted.RawLoad() == 0) {
      const bool grantable = r->mode == LockMode::kExclusive
                                 ? r == head->queue_head
                                 : !x_seen;
      if (!grantable) break;
      // Modeled store: transfers the flag's line to the waiter's core —
      // this is the paper's "data movement overhead" at work.
      r->granted.store(1);
    }
    if (r->mode == LockMode::kExclusive) x_seen = true;
  }
}

void LockTable::Unlink(LockHead* head, Request* req) {
  ORTHRUS_DCHECK(head->queued_total > 0);
  head->queued_total--;
  if (req->mode == LockMode::kExclusive) head->queued_x--;
  if (req->prev != nullptr) {
    req->prev->next = req->next;
  } else {
    head->queue_head = req->next;
  }
  if (req->next != nullptr) {
    req->next->prev = req->prev;
  } else {
    head->queue_tail = req->prev;
  }
  req->prev = nullptr;
  req->next = nullptr;
}

Request* LockTable::AllocRequest(WorkerLockCtx* ctx) {
  Request* r = ctx->free_requests;
  if (r != nullptr) {
    ctx->free_requests = r->next;
  } else {
    // Cold path: grows the worker's private pool. Never recurs for a key
    // once the pool has warmed to the worker's maximum footprint.
    // lint:allow-alloc cold path: pool growth, bounded by max footprint
    ctx->owned_requests.push_back(std::make_unique<Request>());
    r = ctx->owned_requests.back().get();
  }
  r->next = nullptr;
  r->prev = nullptr;
  r->granted.RawStore(0);
  return r;
}

void LockTable::FreeRequest(WorkerLockCtx* ctx, Request* req) {
  req->head = nullptr;
  req->prev = nullptr;
  req->next = ctx->free_requests;
  ctx->free_requests = req;
}

LockTable::AcquireResult LockTable::Acquire(WorkerLockCtx* ctx,
                                            std::uint32_t table,
                                            std::uint64_t key, LockMode mode,
                                            DeadlockPolicy* policy) {
  Bucket* bucket = BucketFor(table, key);
  Request* req = AllocRequest(ctx);
  req->owner = ctx;
  req->mode = mode;
  req->owner_ts = ctx->txn_timestamp;

  bucket->latch.Lock();
  // The hash-chain walk and queue manipulation happen while the latch is
  // held — latch hold time covering list work is what turns workload
  // contention into physical contention (Section 2.1).
  hal::ConsumeCycles(config_.lock_op_cycles);
  LockHead* head = FindOrCreateHead(ctx, bucket, table, key);
  req->head = head;
  // FIFO enqueue; the counters make the grant check O(1).
  const bool grantable = mode == LockMode::kExclusive
                             ? head->queued_total == 0
                             : head->queued_x == 0;
  req->prev = head->queue_tail;
  if (head->queue_tail != nullptr) {
    head->queue_tail->next = req;
  } else {
    head->queue_head = req;
  }
  head->queue_tail = req;
  head->queued_total++;
  if (mode == LockMode::kExclusive) head->queued_x++;

  if (grantable) {
    ORTHRUS_DCHECK(NoConflictAhead(req));
    req->granted.RawStore(1);
    bucket->latch.Unlock();
    ctx->acquired.push_back(req);
    return AcquireResult::kGranted;
  }

  ctx->stats->lock_waits++;
  ctx->waiting_request = req;
  Request* blocker = NearestBlockerOf(req);
  ctx->blocker = blocker != nullptr ? blocker->owner : nullptr;
  const bool may_wait = policy == nullptr || policy->OnBlock(ctx, req);
  if (!may_wait) {
    Unlink(head, req);
    GrantFollowers(head);
    bucket->latch.Unlock();
    FreeRequest(ctx, req);
    ctx->waiting_request = nullptr;
    ctx->blocker = nullptr;
    return AcquireResult::kDie;
  }
  bucket->latch.Unlock();
  ctx->acquired.push_back(req);
  return AcquireResult::kWaiting;
}

bool LockTable::Wait(WorkerLockCtx* ctx, DeadlockPolicy* policy) {
  Request* req = ctx->waiting_request;
  ORTHRUS_CHECK(req != nullptr);
  static DeadlockPolicy fifo_wait;
  DeadlockPolicy* p = policy != nullptr ? policy : &fifo_wait;
  const hal::Cycles wait_start = hal::Now();
  const bool granted = p->WaitForGrant(ctx, req, this);
  p->OnWaitEnd(ctx);
  ctx->stats->Add(TimeCategory::kWaiting, hal::Now() - wait_start);
  ctx->waiting_request = nullptr;
  ctx->blocker = nullptr;
  if (granted) return true;

  // Deadlock: remove the request. It may have been granted between the
  // policy's decision and taking the latch; in that rare race we still
  // abort (the transaction restarts), we just also wake followers.
  ctx->stats->deadlocks++;
  Bucket* bucket = BucketFor(req->head->table, req->head->key);
  bucket->latch.Lock();
  LockHead* head = req->head;
  Unlink(head, req);
  GrantFollowers(head);
  bucket->latch.Unlock();
  ORTHRUS_CHECK(!ctx->acquired.empty() && ctx->acquired.back() == req);
  ctx->acquired.pop_back();
  FreeRequest(ctx, req);
  return false;
}

void LockTable::ReleaseAll(WorkerLockCtx* ctx) {
  for (Request* req : ctx->acquired) {
    Bucket* bucket = BucketFor(req->head->table, req->head->key);
    bucket->latch.Lock();
    hal::ConsumeCycles(config_.lock_op_cycles);
    LockHead* head = req->head;
    Unlink(head, req);
    GrantFollowers(head);
    bucket->latch.Unlock();
    FreeRequest(ctx, req);
  }
  ctx->acquired.clear();
}

void LockTable::RefreshBlocker(WorkerLockCtx* ctx) {
  Request* req = ctx->waiting_request;
  if (req == nullptr) return;
  Bucket* bucket = BucketFor(req->head->table, req->head->key);
  bucket->latch.Lock();
  Request* blocker = NearestBlockerOf(req);
  ctx->blocker = blocker != nullptr ? blocker->owner : nullptr;
  bucket->latch.Unlock();
}

// ------------------------------------------------------------- policies

bool DeadlockPolicy::WaitForGrant(WorkerLockCtx* /*me*/, Request* req,
                                  LockTable* /*table*/) {
  hal::Cycles backoff = 0;
  while (req->granted.load() == 0) {
    hal::ConsumeCycles(backoff + hal::FastJitter(64));
    hal::CpuRelax();
    backoff = backoff < 512 ? backoff + 32 : 512;
  }
  return true;
}

std::uint64_t LockTable::lock_heads_allocated() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    if (w != nullptr) n += w->owned_heads.size();
  }
  return n;
}

}  // namespace orthrus::lock
