#include "wal/wal.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/fnv.h"

namespace orthrus::wal {
namespace {

// Modeled cost of capturing after-images at commit time: the memcpy into
// the fragment arena (per 64B line) plus per-fragment bookkeeping.
constexpr hal::Cycles kCaptureCyclesPerLine = 2;
constexpr hal::Cycles kFragmentOverheadCycles = 30;

constexpr std::uint32_t kFrameHeaderBytes = 16;  // [len][kind][check]

}  // namespace

std::uint64_t FrameCheck(std::uint32_t kind, const std::uint8_t* payload,
                         std::uint32_t len) {
  Fnv1a h;
  h.Mix((static_cast<std::uint64_t>(kind) << 32) | len);
  for (std::uint32_t i = 0; i < len; i += 8) {
    std::uint64_t w = 0;
    const std::uint32_t n = len - i < 8 ? len - i : 8;
    std::memcpy(&w, payload + i, n);
    h.Mix(w);
  }
  return h.digest();
}

// --- PartitionLogBuffer ------------------------------------------------

void PartitionLogBuffer::AppendFrame(std::uint32_t kind,
                                     const std::uint8_t* payload,
                                     std::uint32_t len) {
  // Stream-ownership proxy for the race detector: only the stream's static
  // owner (GroupCommitLog::OwnerOf) ever appends. `this` stands in for the
  // heap bytes the vector moves.
  hal::RaceCheck(this, sizeof(void*), /*is_write=*/true, "wal.stream");
  const std::uint64_t check = FrameCheck(kind, payload, len);
  const std::size_t at = bytes_.size();
  bytes_.resize(at + kFrameHeaderBytes + len);
  std::memcpy(bytes_.data() + at, &len, 4);
  std::memcpy(bytes_.data() + at + 4, &kind, 4);
  std::memcpy(bytes_.data() + at + 8, &check, 8);
  std::memcpy(bytes_.data() + at + kFrameHeaderBytes, payload, len);
}

void PartitionLogBuffer::AppendFragment(const FragmentMsg& frag) {
  // Payload = disk header + the write-image stream, laid out contiguously.
  std::uint8_t buf[sizeof(FragmentDiskHeader) + kMaxFragmentPayload];
  std::memcpy(buf, &frag.hdr, sizeof(FragmentDiskHeader));
  std::memcpy(buf + sizeof(FragmentDiskHeader), frag.payload,
              frag.payload_bytes);
  AppendFrame(kFragmentFrame, buf,
              static_cast<std::uint32_t>(sizeof(FragmentDiskHeader)) +
                  frag.payload_bytes);
}

void PartitionLogBuffer::AppendSeal(std::uint64_t epoch) {
  AppendFrame(kSealFrame, reinterpret_cast<const std::uint8_t*>(&epoch),
              sizeof(epoch));
}

void PartitionLogBuffer::Sync() {
  hal::RaceCheck(this, sizeof(void*), /*is_write=*/true, "wal.stream");
  const std::uint64_t delta = bytes_.size() - synced_bytes_;
  hal::OnStorageSync(&device_, delta);
  synced_bytes_ = bytes_.size();
  syncs_.push_back(SyncPoint{synced_bytes_, hal::Now()});
}

std::vector<std::uint8_t> PartitionLogBuffer::CrashImageAt(
    hal::Cycles t) const {
  std::uint64_t stable = 0;
  for (const SyncPoint& s : syncs_) {
    if (s.completed_at <= t) stable = s.stable_bytes;
  }
  return std::vector<std::uint8_t>(bytes_.begin(),
                                   bytes_.begin() +
                                       static_cast<std::ptrdiff_t>(stable));
}

// --- GroupCommitLog ----------------------------------------------------

GroupCommitLog::GroupCommitLog(const DurabilityOptions& opts,
                               storage::Database* db, int n_producers)
    : opts_(opts),
      db_(db),
      n_producers_(n_producers),
      partitions_(db->partitioner().n) {
  ORTHRUS_CHECK_MSG(opts_.loggers >= 1, "wal needs loggers >= 1");
  ORTHRUS_CHECK_MSG(n_producers_ >= 1, "wal needs n_producers >= 1");
  ORTHRUS_CHECK_MSG(partitions_ >= 1,
                    "wal needs partitions >= 1 (database partitioner().n)");
  // The admission gate reserves kMaxTxnFragments slots per in-flight txn;
  // the arena must leave room for at least one pipelined transaction.
  ORTHRUS_CHECK_MSG(opts_.arena_records >= 2 * kMaxTxnFragments,
                    "wal arena too small for one pipelined transaction: "
                    "need arena_records >= 2 * kMaxTxnFragments");
  epoch_.RawStore(1);
  published_ = std::make_unique<hal::Atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(n_producers_));
  sealed_ = std::make_unique<hal::Atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(partitions_));
  streams_.reserve(static_cast<std::size_t>(partitions_));
  for (int p = 0; p < partitions_; ++p) {
    streams_.push_back(std::make_unique<PartitionLogBuffer>());
  }
  // A fragment still queued is not yet sealed, so its arena slot is not yet
  // reusable: one producer never has more than arena_records fragments in
  // its queues, which bounds every (producer, logger) pair.
  mesh_.Reset(n_producers_, opts_.loggers,
              NextPowerOfTwo(std::max<std::uint64_t>(
                  64, static_cast<std::uint64_t>(opts_.arena_records))));
  row_versions_.reserve(db->num_tables());
  for (std::size_t t = 0; t < db->num_tables(); ++t) {
    row_versions_.emplace_back(db->GetTable(static_cast<std::uint32_t>(t))
                                   ->capacity(),
                               0);
  }
}

std::vector<std::vector<std::uint8_t>> GroupCommitLog::FinalImages() {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(streams_.size());
  for (const auto& stream : streams_) out.push_back(stream->bytes());
  return out;
}

std::vector<std::vector<std::uint8_t>> GroupCommitLog::CrashImagesAt(
    hal::Cycles t) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(streams_.size());
  for (const auto& stream : streams_) out.push_back(stream->CrashImageAt(t));
  return out;
}

void GroupCommitLog::RunLogger(int logger_index, runtime::WorkerContext* ctx) {
  (void)ctx;
  hal::Platform* pf = hal::CurrentCore()->platform;
  const hal::Cycles interval = std::max<hal::Cycles>(
      1, static_cast<hal::Cycles>(opts_.group_commit_seconds *
                                  pf->CyclesPerSecond()));
  std::uint64_t last_durable = 0;
  hal::Cycles next_epoch_at = hal::Now() + interval;
  hal::IdleBackoff idle(4096);

  for (;;) {
    bool progress = false;
    const std::uint64_t retired = retired_.load();

    // 1. Epoch clock (logger 0 only). The clock freezes once every producer
    // has permanently retired: a producer only retires with its pending
    // queue drained, so everything it ever captured is already sealed and
    // durable — further epochs would only keep the shutdown condition below
    // from ever holding.
    if (logger_index == 0 &&
        retired != static_cast<std::uint64_t>(n_producers_)) {
      const hal::Cycles now = hal::Now();
      if (now >= next_epoch_at) {
        epoch_.fetch_add(1);
        next_epoch_at = now + interval;
        progress = true;
      }
    }

    // 2. Seal candidate, read BEFORE draining: a producer enqueues every
    // fragment inside Capture, before its next Poll publishes an epoch, so
    // once we have read published epochs, a drain to empty surfaces every
    // fragment with epoch <= candidate addressed to us. Producers that
    // retired publish the done sentinel and bound nothing; the current
    // epoch minus one bounds everyone (a producer publishes from its
    // constructor, before it can capture, and the publish-then-capture
    // order makes the bound sound).
    const std::uint64_t e_now = epoch_.load();
    std::uint64_t candidate = e_now - 1;
    for (int i = 0; i < n_producers_; ++i) {
      const std::uint64_t pub = published_[i].load();
      const std::uint64_t lim =
          pub == kDonePublished ? e_now - 1 : (pub == 0 ? 0 : pub - 1);
      candidate = std::min(candidate, lim);
    }

    // 3. Drain fragments to empty and append each to its stream. Producers
    // address a fragment to its partition's static owner, so every stream
    // reached here is ours.
    const auto on_fragment = [&](std::uint64_t v) {
      const auto* f = reinterpret_cast<const FragmentMsg*>(v);
      // The producer's whole-slot write must happen-before this read (the
      // mesh indices are the edge); slot reuse is additionally ordered by
      // durable_epoch_ (see Producer::AllocSlot).
      hal::RaceCheck(f, sizeof(FragmentMsg), /*is_write=*/false, "wal.frag");
      const int p = static_cast<int>(f->hdr.partition);
      ORTHRUS_DCHECK(p >= 0 && p < partitions_ && OwnerOf(p) == logger_index);
      streams_[static_cast<std::size_t>(p)]->AppendFragment(*f);
    };
    while (mesh_.Drain(logger_index, on_fragment) != 0) progress = true;

    // 4. Seal owned streams at the candidate.
    for (int p = logger_index; p < partitions_; p += opts_.loggers) {
      PartitionLogBuffer* stream = streams_[static_cast<std::size_t>(p)].get();
      if (candidate > stream->last_sealed) {
        stream->AppendSeal(candidate);
        stream->Sync();
        stream->last_sealed = candidate;
        sealed_[p].store(candidate);
        progress = true;
      }
    }

    // 5. Global durable epoch (logger 0): the minimum sealed epoch across
    // all partition streams — an epoch is durable only when every stream
    // that could hold one of its fragments has sealed past it.
    if (logger_index == 0) {
      std::uint64_t durable = ~0ull;
      for (int p = 0; p < partitions_; ++p) {
        durable = std::min(durable, sealed_[p].load());
      }
      if (durable != 0 && durable != ~0ull && durable != last_durable) {
        durable_epoch_.store(durable);
        last_durable = durable;
        progress = true;
      }
    }

    // 6. Shutdown: all producers permanently retired (their pending
    // commits matured, which implies every fragment is sealed) and nothing
    // drained.
    if (!progress && retired == static_cast<std::uint64_t>(n_producers_)) {
      break;
    }

    if (progress) {
      idle.Reset();
      hal::CpuRelax();
    } else {
      idle.Idle();
    }
  }
}

// --- Producer ----------------------------------------------------------

Producer::Producer(GroupCommitLog* log, int producer_id,
                   runtime::WorkerContext* ctx)
    : log_(log),
      id_(producer_id),
      ctx_(ctx),
      arena_records_(log->opts_.arena_records),
      arena_(std::make_unique<FragmentMsg[]>(
          static_cast<std::size_t>(log->opts_.arena_records))) {
  ORTHRUS_CHECK(producer_id >= 0 && producer_id < log->n_producers_);
  // Publish before any capture: the seal candidate is bounded by the
  // current epoch minus one only because a producer that can emit a
  // fragment at epoch e has published a value <= e beforehand.
  log_->published_[id_].store(log_->epoch_.load());
}

Producer::~Producer() {
  ORTHRUS_CHECK_MSG(retired_, "wal producer destroyed without Retire()");
}

FragmentMsg* Producer::AllocSlot() {
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (int i = 0; i < arena_records_; ++i) {
      const int idx = (alloc_cursor_ + i) % arena_records_;
      FragmentMsg& f = arena_[static_cast<std::size_t>(idx)];
      // epoch 0 = never used; otherwise the slot is free once its epoch is
      // durable (the logger consumed and sealed it before granting that).
      if (f.hdr.epoch <= durable_cache_) {
        alloc_cursor_ = (idx + 1) % arena_records_;
        return &f;
      }
    }
    durable_cache_ = log_->durable_epoch_.load();
  }
  ORTHRUS_CHECK_MSG(false,
                    "wal fragment arena exhausted: AdmitReady gate violated");
  return nullptr;
}

void Producer::Capture(txn::Txn* t, storage::Database* db) {
  ORTHRUS_CHECK(!retired_);
  // The commit epoch, read while the transaction still holds its exclusive
  // locks: any dependent transaction acquires later and reads a later (or
  // equal) epoch, so epoch order respects dependency order.
  const std::uint64_t epoch = log_->epoch_.load();
  const storage::Partitioner& parts = db->partitioner();

  std::uint32_t writes_total = 0;
  for (const txn::Access& a : t->accesses) {
    if (a.mode == txn::LockMode::kExclusive) ++writes_total;
  }

  int nparts = 0;
  std::uint32_t plist[kMaxTxnFragments];
  FragmentMsg* frags[kMaxTxnFragments];
  hal::Cycles copy_cost = 0;

  for (const txn::Access& a : t->accesses) {
    if (a.mode != txn::LockMode::kExclusive) continue;
    const std::uint32_t p = static_cast<std::uint32_t>(parts.PartOf(a.key));
    int fi = -1;
    for (int i = 0; i < nparts; ++i) {
      if (plist[i] == p) {
        fi = i;
        break;
      }
    }
    if (fi < 0) {
      ORTHRUS_CHECK(nparts < kMaxTxnFragments);
      fi = nparts++;
      plist[fi] = p;
      FragmentMsg* f = AllocSlot();
      // Whole-slot write tag: reuse is only legal once the consuming
      // logger's epoch went durable, so any earlier logger read must be
      // ordered before this via durable_epoch_.
      hal::RaceCheck(f, sizeof(FragmentMsg), /*is_write=*/true, "wal.frag");
      f->hdr = FragmentDiskHeader{epoch,
                                  next_seq_,
                                  static_cast<std::uint32_t>(id_),
                                  p,
                                  writes_total,
                                  0};
      f->payload_bytes = 0;
      frags[fi] = f;
    }
    FragmentMsg* f = frags[fi];
    storage::Table* tbl = db->GetTable(a.table);
    const std::uint32_t len = tbl->row_bytes();
    const std::uint64_t slot = tbl->SlotOfRow(a.row);
    // Per-row version under the row's X lock: recovery replays
    // max-version-wins, which makes cross-fragment arrival order moot.
    std::uint64_t& ver = log_->row_versions_[a.table][slot];
    ++ver;
    const WriteImageHeader wh{a.table, len, slot, ver};
    const std::uint32_t padded = (len + 7u) & ~7u;
    ORTHRUS_CHECK_MSG(
        f->payload_bytes + sizeof(wh) + padded <= kMaxFragmentPayload,
        "wal fragment payload overflow: enlarge kMaxFragmentPayload");
    std::memcpy(f->payload + f->payload_bytes, &wh, sizeof(wh));
    std::uint8_t* img = f->payload + f->payload_bytes + sizeof(wh);
    if (padded != len) std::memset(img + len, 0, padded - len);
    std::memcpy(img, a.row, len);
    f->payload_bytes += static_cast<std::uint32_t>(sizeof(wh)) + padded;
    f->hdr.n_writes++;
    copy_cost += kCaptureCyclesPerLine * ((len + 63) / 64);
  }

  if (nparts == 0) {
    // Read-only commit: an empty fragment keeps this producer's durable
    // prefix dense, so recovery's per-producer counts (the resume credit)
    // see every commit, not just the writing ones.
    FragmentMsg* f = AllocSlot();
    hal::RaceCheck(f, sizeof(FragmentMsg), /*is_write=*/true, "wal.frag");
    const std::uint32_t p =
        t->accesses.empty()
            ? 0
            : static_cast<std::uint32_t>(parts.PartOf(t->accesses[0].key));
    f->hdr = FragmentDiskHeader{
        epoch, next_seq_, static_cast<std::uint32_t>(id_), p, 0, 0};
    f->payload_bytes = 0;
    plist[0] = p;
    frags[0] = f;
    nparts = 1;
  }

  for (int i = 0; i < nparts; ++i) {
    log_->mesh_.Send(id_, log_->OwnerOf(static_cast<int>(plist[i])),
                     reinterpret_cast<std::uint64_t>(frags[i]));
    ctx_->stats.wal_fragments++;
  }
  outstanding_ += static_cast<std::uint64_t>(nparts);
  pending_.push_back(PendingCommit{epoch, t->start_cycles,
                                   static_cast<std::uint32_t>(nparts)});
  next_seq_++;
  hal::ConsumeCycles(copy_cost +
                     kFragmentOverheadCycles *
                         static_cast<hal::Cycles>(nparts));
}

void Producer::Mature() {
  if (pending_.empty()) return;
  durable_cache_ = log_->durable_epoch_.load();
  const hal::Cycles now = hal::Now();
  while (!pending_.empty() && pending_.front().epoch <= durable_cache_) {
    ctx_->stats.committed++;
    ctx_->stats.txn_latency.Record(now - pending_.front().start);
    outstanding_ -= pending_.front().fragments;
    pending_.pop_front();
  }
}

void Producer::Poll() {
  ORTHRUS_CHECK(!retired_);
  // Capture enqueued every fragment before this publish, so the published
  // epoch is the logger's proof that every fragment of earlier epochs is
  // already visible in its queue.
  log_->published_[id_].store(log_->epoch_.load());
  Mature();
}

void Producer::Retire() {
  ORTHRUS_CHECK_MSG(pending_.empty(), "wal Retire with commits in flight");
  ORTHRUS_CHECK(!retired_);
  log_->published_[id_].store(GroupCommitLog::kDonePublished);
  retired_ = true;
  log_->retired_.fetch_add(1);
}

// --- Recovery ----------------------------------------------------------

namespace {

struct TxnAccumulator {
  std::uint64_t epoch = 0;
  std::uint32_t writes_total = 0;
  std::uint32_t writes_seen = 0;
};

}  // namespace

RecoveryResult Recover(const std::vector<std::vector<std::uint8_t>>& logs,
                       int n_producers, storage::Database* db) {
  RecoveryResult r;
  r.durable_per_producer.assign(static_cast<std::size_t>(n_producers), 0);

  // Pass 1: frame validation (torn tails truncate at the first bad frame)
  // and the durable epoch: min over partitions of the largest sealed epoch.
  std::vector<std::size_t> valid_bytes(logs.size(), 0);
  std::uint64_t durable = ~0ull;
  for (std::size_t p = 0; p < logs.size(); ++p) {
    const std::vector<std::uint8_t>& log = logs[p];
    std::uint64_t sealed = 0;
    std::size_t off = 0;
    while (off + kFrameHeaderBytes <= log.size()) {
      std::uint32_t len = 0;
      std::uint32_t kind = 0;
      std::uint64_t check = 0;
      std::memcpy(&len, log.data() + off, 4);
      std::memcpy(&kind, log.data() + off + 4, 4);
      std::memcpy(&check, log.data() + off + 8, 8);
      if ((kind != kFragmentFrame && kind != kSealFrame) ||
          off + kFrameHeaderBytes + len > log.size() ||
          FrameCheck(kind, log.data() + off + kFrameHeaderBytes, len) !=
              check) {
        break;  // torn or corrupt: discard this frame and everything after
      }
      if (kind == kSealFrame && len == sizeof(std::uint64_t)) {
        std::uint64_t e = 0;
        std::memcpy(&e, log.data() + off + kFrameHeaderBytes, 8);
        sealed = std::max(sealed, e);
      }
      off += kFrameHeaderBytes + len;
    }
    valid_bytes[p] = off;
    if (off < log.size()) r.frames_dropped++;
    durable = std::min(durable, sealed);
  }
  if (logs.empty() || durable == ~0ull) durable = 0;
  r.durable_epoch = durable;

  // Pass 2: replay fragments with epoch <= durable, max-version-wins, and
  // account per-producer durable prefixes.
  std::vector<std::vector<std::uint64_t>> applied(db->num_tables());
  for (std::size_t t = 0; t < db->num_tables(); ++t) {
    applied[t].assign(
        db->GetTable(static_cast<std::uint32_t>(t))->capacity(), 0);
  }
  std::map<std::pair<std::uint32_t, std::uint64_t>, TxnAccumulator> txns;

  for (std::size_t p = 0; p < logs.size(); ++p) {
    const std::vector<std::uint8_t>& log = logs[p];
    std::size_t off = 0;
    while (off < valid_bytes[p]) {
      std::uint32_t len = 0;
      std::uint32_t kind = 0;
      std::memcpy(&len, log.data() + off, 4);
      std::memcpy(&kind, log.data() + off + 4, 4);
      const std::uint8_t* payload = log.data() + off + kFrameHeaderBytes;
      off += kFrameHeaderBytes + len;
      if (kind != kFragmentFrame) continue;
      ORTHRUS_CHECK(len >= sizeof(FragmentDiskHeader));
      FragmentDiskHeader hdr;
      std::memcpy(&hdr, payload, sizeof(hdr));
      if (hdr.epoch > durable) {
        r.fragments_skipped++;
        continue;
      }
      ORTHRUS_CHECK(hdr.producer < static_cast<std::uint32_t>(n_producers));
      TxnAccumulator& acc = txns[{hdr.producer, hdr.producer_seq}];
      if (acc.writes_seen == 0 && acc.epoch == 0) {
        acc.epoch = hdr.epoch;
        acc.writes_total = hdr.txn_writes_total;
      } else {
        ORTHRUS_CHECK_MSG(acc.epoch == hdr.epoch &&
                              acc.writes_total == hdr.txn_writes_total,
                          "wal recovery: inconsistent fragments for one txn");
      }
      acc.writes_seen += hdr.n_writes;

      const std::uint8_t* w = payload + sizeof(FragmentDiskHeader);
      const std::uint8_t* end = payload + len;
      for (std::uint32_t i = 0; i < hdr.n_writes; ++i) {
        ORTHRUS_CHECK(w + sizeof(WriteImageHeader) <= end);
        WriteImageHeader wh;
        std::memcpy(&wh, w, sizeof(wh));
        const std::uint32_t padded = (wh.len + 7u) & ~7u;
        ORTHRUS_CHECK(w + sizeof(WriteImageHeader) + padded <= end);
        ORTHRUS_CHECK(wh.table < db->num_tables());
        storage::Table* tbl = db->GetTable(wh.table);
        ORTHRUS_CHECK(wh.slot < tbl->capacity());
        ORTHRUS_CHECK(wh.len == tbl->row_bytes());
        std::uint64_t& av = applied[wh.table][wh.slot];
        if (wh.version > av) {
          void* dst = tbl->RowBySlot(wh.slot);
          // Recovery owns the database exclusively (post-join, or a fresh
          // database before any engine run); all other recovery state —
          // frame offsets, the applied-version matrix, the accumulator map
          // — is function-local. Tagging the one shared-structure write
          // (the row image) turns an engine run racing Recover on the same
          // database into a detector report.
          hal::RaceCheck(dst, wh.len, /*is_write=*/true, "wal.recover.row");
          std::memcpy(dst, w + sizeof(WriteImageHeader), wh.len);
          av = wh.version;
          r.writes_applied++;
        }
        w += sizeof(WriteImageHeader) + padded;
      }
    }
  }

  // Per-producer accounting: the durable transactions of each producer must
  // be complete (every fragment present — the seal contract) and form a
  // dense prefix of its commit order (epochs are monotone per producer).
  std::vector<std::uint64_t> max_seq(static_cast<std::size_t>(n_producers),
                                     0);
  std::vector<bool> any(static_cast<std::size_t>(n_producers), false);
  for (const auto& [key, acc] : txns) {
    ORTHRUS_CHECK_MSG(acc.writes_seen == acc.writes_total,
                      "wal recovery: durable epoch covers an incomplete txn");
    r.txns_replayed++;
    const std::size_t prod = key.first;
    max_seq[prod] = std::max(max_seq[prod], key.second);
    any[prod] = true;
    r.durable_per_producer[prod]++;
  }
  for (int i = 0; i < n_producers; ++i) {
    const std::size_t s = static_cast<std::size_t>(i);
    ORTHRUS_CHECK_MSG(
        !any[s] || r.durable_per_producer[s] == max_seq[s] + 1,
        "wal recovery: durable transactions are not a dense prefix");
  }
  return r;
}

}  // namespace orthrus::wal
