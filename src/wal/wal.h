// Crash-consistent durability: a per-partition redo log with group commit.
//
// The paper's separation of concurrency control from execution maps onto
// logging the same way it maps onto locking: partition the log by lock-space
// partition, give each partition's stream one fixed owner for the whole
// run, and move everything across cores by message passing. Concretely:
//
//  * Commit paths emit *fragments* — the transaction's after-images grouped
//    by lock-space partition — as pointer messages over the per-pair
//    mp::QueueMesh (producer x logger) to a dedicated logger worker, each
//    sent as it is produced.
//
//  * Commit ordering uses Silo-style epochs (Tu et al., SOSP'13): a global
//    epoch counter advances on a virtual-time interval; every committing
//    transaction reads the epoch *while still holding its exclusive locks*,
//    so epoch order respects dependency order (if T2 read T1's writes, T2
//    acquired after T1's release and read an epoch >= T1's). Durability is
//    granted to whole epochs, which makes the durable set dependency-closed
//    — no committed-but-durable transaction can depend on a lost one.
//
//  * Replay order inside an epoch is reconstructed from per-row version
//    counters, bumped under the row's X lock at capture time: recovery
//    applies an after-image iff its version exceeds the row's last applied
//    version (max-version-wins), so fragments can be replayed in any order,
//    any number of times, with the same result.
//
//  * A transaction's commit is *acknowledged* (counted, latency-stamped)
//    only once its epoch is durable: every partition log it could have
//    touched has appended a seal frame for that epoch and synced to stable
//    storage (hal::Platform::OnStorageSync models the fsync cost; see
//    SimConfig::storage_sync_base_cycles). Workers pipeline: they keep
//    executing while earlier commits await their group commit, bounded by
//    the fragment arena (backpressure instead of unbounded buffering).
//
//  * Log-stream ownership is static: partition p's stream belongs to
//    logger p % loggers for the whole run (as Silo binds each logger to a
//    fixed slice of the log), so a stream never changes hands and every
//    fragment arrives at the one logger that appends it.
//
// Frame format (per partition log, byte stream):
//   [u32 payload_len][u32 kind][u64 fnv_check][payload]
// kinds: kFragmentFrame (one transaction's writes for one partition),
// kSealFrame (epoch seal: every fragment of epochs <= e for this partition
// precedes this frame). Torn tails truncate at the first bad frame.
// Recovery computes the durable epoch D = min over partitions of the
// largest sealed epoch, replays exactly the fragments with epoch <= D, and
// reports per-producer durable transaction counts (a prefix of each
// producer's commit order — epochs are monotone per producer).
#ifndef ORTHRUS_WAL_WAL_H_
#define ORTHRUS_WAL_WAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/queue_mesh.h"
#include "runtime/worker_pool.h"
#include "storage/database.h"
#include "txn/txn.h"

namespace orthrus::wal {

struct DurabilityOptions {
  // Dedicated logger workers (extra cores past the engine's txn workers).
  int loggers = 1;

  // Epoch length: the group-commit interval. Commit-ack latency is one to
  // two epochs; every partition log syncs at most once per epoch.
  double group_commit_seconds = 20e-6;

  // Fragment arena slots per producer. A slot is reusable once its epoch is
  // durable, so this bounds a producer's pipelined (committed-not-durable)
  // transactions; admission stalls when fewer than kMaxTxnFragments slots
  // are free — backpressure, not unbounded buffering.
  int arena_records = 192;
};

// Upper bound on fragments one transaction can emit (one per touched
// partition), matching the ORTHRUS engine's per-transaction access cap with
// headroom. Admission reserves this many arena slots per in-flight txn.
inline constexpr int kMaxTxnFragments = 48;

// Payload bytes per fragment: write-image headers plus row after-images.
inline constexpr std::size_t kMaxFragmentPayload = 4096;

enum FrameKind : std::uint32_t {
  kFragmentFrame = 1,
  kSealFrame = 2,
};

// One write's after-image inside a fragment payload: header, then `len`
// bytes of row payload padded to 8-byte alignment.
struct WriteImageHeader {
  std::uint32_t table;
  std::uint32_t len;
  std::uint64_t slot;     // row slot (stable across reload; pointers die)
  std::uint64_t version;  // per-row version, bumped under the row's X lock
};

// On-log fragment header (start of a kFragmentFrame payload).
struct FragmentDiskHeader {
  std::uint64_t epoch;
  std::uint64_t producer_seq;       // txn index within the producer, from 0
  std::uint32_t producer;
  std::uint32_t partition;
  std::uint32_t txn_writes_total;   // across all the txn's fragments
  std::uint32_t n_writes;           // in this fragment
};

// In-memory fragment record: one arena slot. The pointer is the mesh
// message; the slot is free for reuse once its epoch is durable (the logger
// has, by then, copied it into the partition log and synced).
struct FragmentMsg {
  FragmentDiskHeader hdr{};
  std::uint32_t payload_bytes = 0;
  std::uint8_t payload[kMaxFragmentPayload];
};

// FNV-1a over (kind, len, payload), the frame checksum. Shared with
// recovery so torn-tail detection and the writer can never drift.
std::uint64_t FrameCheck(std::uint32_t kind, const std::uint8_t* payload,
                         std::uint32_t len);

// A stable-storage sync point: everything up to `stable_bytes` was durable
// once the sync completed at `completed_at`. Crash injection truncates a
// log to the largest watermark at or before the kill time.
struct SyncPoint {
  std::uint64_t stable_bytes = 0;
  hal::Cycles completed_at = 0;
};

// One partition's redo-log stream. Owner-private plain memory: its one
// logger (GroupCommitLog::OwnerOf) is the only appender for the whole run;
// other threads read it only after the run has joined.
class PartitionLogBuffer {
 public:
  PartitionLogBuffer() { bytes_.reserve(1 << 16); }

  void AppendFrame(std::uint32_t kind, const std::uint8_t* payload,
                   std::uint32_t len);
  void AppendFragment(const FragmentMsg& frag);
  void AppendSeal(std::uint64_t epoch);

  // Forces unsynced bytes to stable storage (modeled device latency) and
  // records the sync point. Called when a seal frame lands.
  void Sync();

  std::uint64_t last_sealed = 0;  // owner-private seal cursor

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  const std::vector<SyncPoint>& syncs() const { return syncs_; }
  std::uint64_t synced_bytes() const { return synced_bytes_; }

  // The on-disk image had the process been killed at virtual time `t`:
  // the prefix covered by the last sync completed at or before `t`.
  std::vector<std::uint8_t> CrashImageAt(hal::Cycles t) const;

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<SyncPoint> syncs_;
  std::uint64_t synced_bytes_ = 0;
  hal::StorageMeta device_;  // the stream's modeled log device
};

class Producer;

// The shared durability state for one engine run: the epoch clock, the
// fragment mesh, the partition logs, per-producer published epochs,
// per-partition sealed epochs, and the global durable epoch. Construct
// before Run (off-core); producers and loggers attach from their cores.
class GroupCommitLog {
 public:
  // Sentinel published by a producer that has retired: it emits nothing
  // more, so it never holds the seal candidate back.
  static constexpr std::uint64_t kDonePublished = ~0ull;

  // Partitions = db->partitioner().n (the lock-space partitioning every
  // engine already routes by). Producer ids must be dense in
  // [0, n_producers).
  GroupCommitLog(const DurabilityOptions& opts, storage::Database* db,
                 int n_producers);

  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  int n_producers() const { return n_producers_; }
  int loggers() const { return opts_.loggers; }
  const DurabilityOptions& options() const { return opts_; }

  // The logger that owns partition p's stream for the whole run.
  int OwnerOf(int p) const { return p % opts_.loggers; }

  // Logger worker body: drains fragments into owned partition logs, seals
  // epochs, syncs, publishes durability. Logger 0 additionally advances the
  // epoch clock and the global durable epoch. Runs until every producer has
  // retired and nothing is left to drain.
  void RunLogger(int logger_index, runtime::WorkerContext* ctx);

  // --- post-run / test inspection (off-core) ---------------------------

  // Per-partition log images: as-is (clean shutdown) or as-if killed at
  // virtual time `t` (truncated to each stream's last durable sync).
  std::vector<std::vector<std::uint8_t>> FinalImages();
  std::vector<std::vector<std::uint8_t>> CrashImagesAt(hal::Cycles t);

  // Unmodeled teardown assertion: nothing left in flight.
  std::size_t MeshBacklogRaw() const { return mesh_.SizeRawTotal(); }

 private:
  friend class Producer;

  DurabilityOptions opts_;
  storage::Database* db_;
  int n_producers_;
  int partitions_;

  hal::Atomic<std::uint64_t> epoch_{0};          // seeded to 1 in ctor
  hal::Atomic<std::uint64_t> durable_epoch_{0};
  hal::Atomic<std::uint64_t> retired_{0};
  std::unique_ptr<hal::Atomic<std::uint64_t>[]> published_;  // per producer
  std::unique_ptr<hal::Atomic<std::uint64_t>[]> sealed_;     // per partition

  std::vector<std::unique_ptr<PartitionLogBuffer>> streams_;  // per partition
  mp::QueueMesh<std::uint64_t> mesh_;  // FragmentMsg* as u64, producer x logger

  // Per-(table, slot) version counters, bumped under the row's X lock at
  // capture. Plain memory: the X lock serializes writers of a row.
  std::vector<std::vector<std::uint64_t>> row_versions_;
};

// A committing worker's attachment to the GroupCommitLog: fragment arena
// and pending (committed-not-yet-durable) queue. One per producer,
// constructed on the producer's own core.
class Producer {
 public:
  Producer(GroupCommitLog* log, int producer_id, runtime::WorkerContext* ctx);
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  // True when the arena can absorb `reserve_txns` whole transactions. Gate
  // admission on this: Capture itself never blocks (it runs under locks).
  // Sequential drivers reserve for the one transaction they are about to
  // admit; pipelined engines must reserve for every admitted-but-not-yet-
  // captured transaction too, since each of those will Capture when its
  // grant arrives regardless of arena pressure.
  bool AdmitReady(std::uint64_t reserve_txns = 1) const {
    return outstanding_ + reserve_txns * kMaxTxnFragments <=
           static_cast<std::uint64_t>(arena_records_);
  }

  // Called with the transaction's exclusive locks still held, after its
  // logic succeeded: reads the commit epoch, copies the after-images into
  // per-partition fragments, sends each to its partition's logger, and
  // queues the commit as pending. The driver acknowledges it (counts
  // committed, records latency) when the epoch turns durable.
  void Capture(txn::Txn* t, storage::Database* db);

  // Quantum maintenance: publish the epoch heartbeat and acknowledge
  // matured commits into ctx->stats. Call once per driver iteration /
  // scheduling quantum.
  void Poll();

  std::uint64_t PendingCount() const { return pending_.size(); }
  bool Drained() const { return pending_.empty(); }

  // Permanent exit: requires Drained(). Publishes the done sentinel and
  // counts toward logger shutdown.
  void Retire();

 private:
  FragmentMsg* AllocSlot();
  void Mature();

  struct PendingCommit {
    std::uint64_t epoch;
    hal::Cycles start;
    std::uint32_t fragments;
  };

  GroupCommitLog* log_;
  int id_;
  runtime::WorkerContext* ctx_;
  int arena_records_;
  std::unique_ptr<FragmentMsg[]> arena_;
  int alloc_cursor_ = 0;
  std::uint64_t outstanding_ = 0;  // arena slots not yet durable
  std::uint64_t next_seq_ = 0;
  std::uint64_t durable_cache_ = 0;
  std::deque<PendingCommit> pending_;
  bool retired_ = false;
};

// --- Recovery ----------------------------------------------------------

struct RecoveryResult {
  std::uint64_t durable_epoch = 0;
  std::uint64_t txns_replayed = 0;
  std::uint64_t writes_applied = 0;
  std::uint64_t frames_dropped = 0;      // torn/corrupt tail frames
  std::uint64_t fragments_skipped = 0;   // intact but past the durable epoch
  std::vector<std::uint64_t> durable_per_producer;
};

// Replays per-partition log images into `db`, which must be freshly loaded
// by the same deterministic loader as the original run (slot numbers are
// the row addresses). Handles torn tails (truncate at the first bad frame)
// and applies after-images max-version-wins, so replay is idempotent and
// order-independent. durable_per_producer[p] is the length of producer p's
// durable commit prefix — the resume credit for a post-crash run.
RecoveryResult Recover(const std::vector<std::vector<std::uint8_t>>& logs,
                       int n_producers, storage::Database* db);

}  // namespace orthrus::wal

#endif  // ORTHRUS_WAL_WAL_H_
