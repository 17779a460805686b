// Partition ownership as a runtime-remappable layer.
//
// A partitioned space (the WAL's per-partition log streams, owned by
// logger threads) is split into P partitions, each owned by one slot of a
// worker population. This header lets ownership move between slots while
// the run is live:
//
//  * HashRing — a consistent-hash assignment of P partitions onto the
//    active prefix [0, k) of a slot population. Stable under resizing:
//    activating or retiring one slot moves only the partitions that slot
//    gains or loses; every other partition keeps its owner, so a
//    k -> k-1 step hands off ~P/k partitions instead of reshuffling all
//    of them.
//
//  * SpaceMap<Shard> — the authoritative ownership state: one Shard (the
//    owner-private state) per partition, an atomic per-shard owner word, a
//    published routing table, and a monotonically increasing map
//    *version* (the handoff epoch). Two views coexist by design: the
//    routing table is a hint senders may read stale; the per-shard owner
//    word is the authority receivers must check before touching a shard.
//
//  * LockSpaceRouter — a thread's cached view of the routing table.
//    Refresh() costs one modeled atomic load per scheduling quantum and
//    copies the table only when the epoch moved; OwnerOf() is then a plain
//    array read on the hot send path. Each router publishes the version it
//    has observed, which gives retiring owners their drain barrier (below).
//
// The handoff protocol (one partition moving from slot a to slot b):
//
//   1. The controller publishes a new owner table and bumps the version.
//   2. a notices the epoch moved at its next quantum boundary (Refresh),
//      and — as the shard's sole owner, at a point where it is touching no
//      shard state — release-stores the shard's owner word to b. This is
//      the entire transfer: the shard *pointer* changes hands, never the
//      state behind it, so nothing is lost or duplicated.
//   3. Senders route by their cached table. A message that reaches a slot
//      which does not own the target shard (stale sender view, or the
//      owner store not yet observed) is forwarded to the shard's current
//      owner — it chases the ownership chain, which settles one epoch
//      after the last relinquish.
//   4. A slot leaving the active set stops only after (a) it owns no
//      shard, (b) every registered router has observed a version at or
//      past its retirement epoch — so no sender can still be routing new
//      messages to it — and (c) a final drain found its queues empty.
//
// The release/acquire pair on the owner word is the only synchronization a
// handoff needs: everything the source wrote into the shard happens-before
// any access by a thread that has observed itself as the owner.
#ifndef ORTHRUS_LOCK_SPACE_MAP_H_
#define ORTHRUS_LOCK_SPACE_MAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"

namespace orthrus::lock {

// Consistent-hash ring: P partitions -> the active prefix [0, k) of
// `max_slots` slots. Pure deterministic arithmetic (no state beyond the
// precomputed ring), so every thread computes identical tables.
class HashRing {
 public:
  // `replicas` ring points per slot; more replicas smooth the partition
  // counts per slot at the cost of a longer ring walk on resize.
  explicit HashRing(int max_slots, int replicas = 16);

  int max_slots() const { return max_slots_; }

  // Owner of `partition` when slots [0, active) are active. Stability: the
  // owner changes across `active` counts only when the partition's nearest
  // active ring point changes — i.e. only partitions adjacent to the
  // activated/retired slot's points move.
  int OwnerOf(int partition, int active) const;

  // Full owner table for `partitions` partitions at `active` slots.
  std::vector<std::uint32_t> OwnersFor(int partitions, int active) const;

 private:
  struct Point {
    std::uint64_t where;
    int slot;
    bool operator<(const Point& o) const {
      if (where != o.where) return where < o.where;
      return slot < o.slot;  // total order: deterministic tie-break
    }
  };

  int max_slots_;
  std::vector<Point> points_;  // sorted
};

// Authoritative partition ownership. `Shard` is whatever the owner keeps
// per partition (the WAL: the partition's log buffer); SpaceMap owns the
// shards so their addresses are stable for the whole run while ownership
// moves across threads.
template <typename Shard>
class SpaceMap {
 public:
  // Observed-version sentinel for routers that are parked, retired, or not
  // yet started: they hold no cached table, so they can never route by a
  // stale epoch and count as "past" every barrier.
  static constexpr std::uint64_t kInactive = ~0ull;

  SpaceMap() = default;
  SpaceMap(const SpaceMap&) = delete;
  SpaceMap& operator=(const SpaceMap&) = delete;

  // Builds the shards and seeds ownership + routing from `owners`, with
  // `routers` observation slots (one per thread that will ever route).
  // Must run before any concurrent access (raw stores).
  template <typename MakeShard>
  void Reset(int partitions, const std::vector<std::uint32_t>& owners,
             int routers, MakeShard&& make) {
    ORTHRUS_CHECK(partitions >= 1);
    ORTHRUS_CHECK(owners.size() == static_cast<std::size_t>(partitions));
    ORTHRUS_CHECK(routers >= 1);
    partitions_ = partitions;
    routers_ = routers;
    shards_.clear();
    shards_.reserve(static_cast<std::size_t>(partitions));
    for (int p = 0; p < partitions; ++p) shards_.push_back(make(p));
    owner_ = std::make_unique<hal::Atomic<std::uint64_t>[]>(  // lint:allow-alloc setup
        static_cast<std::size_t>(partitions));
    route_ = std::make_unique<hal::Atomic<std::uint64_t>[]>(  // lint:allow-alloc setup
        static_cast<std::size_t>(partitions));
    for (int p = 0; p < partitions; ++p) {
      owner_[p].RawStore(owners[static_cast<std::size_t>(p)]);
      route_[p].RawStore(owners[static_cast<std::size_t>(p)]);
    }
    observed_ = std::make_unique<hal::Atomic<std::uint64_t>[]>(  // lint:allow-alloc setup
        static_cast<std::size_t>(routers));
    for (int r = 0; r < routers; ++r) observed_[r].RawStore(kInactive);
    version_.RawStore(1);
  }

  int partitions() const { return partitions_; }
  int routers() const { return routers_; }
  Shard* shard(int p) { return shards_[static_cast<std::size_t>(p)].get(); }

  // --- routing hints (the published table; senders may read it stale) ---

  std::uint64_t version() { return version_.load(); }
  std::uint64_t VersionRaw() const { return version_.RawLoad(); }
  std::uint64_t RouteOf(int p) { return route_[p].load(); }

  // Controller side: publish a new owner table as a new epoch. Table
  // stores precede the version bump, so a router that sees the new
  // version copies a table at least as new.
  std::uint64_t Publish(const std::vector<std::uint32_t>& owners) {
    ORTHRUS_DCHECK(owners.size() == static_cast<std::size_t>(partitions_));
    for (int p = 0; p < partitions_; ++p) {
      route_[p].store(owners[static_cast<std::size_t>(p)]);
    }
    return version_.fetch_add(1) + 1;
  }

  // --- shard ownership (authoritative; single-writer transfer chain) ---

  // Acquire-load of the owner word: a thread observing itself here may
  // touch the shard, and sees every write the previous owner made.
  std::uint64_t ShardOwner(int p) { return owner_[p].load(); }
  std::uint64_t ShardOwnerRaw(int p) const { return owner_[p].RawLoad(); }

  // Called by the shard's *current owner* only, at a point where it holds
  // no reference into the shard: hands the shard to `to`.
  void Relinquish(int p, std::uint64_t to) { owner_[p].store(to); }

  // --- the epoch barrier ------------------------------------------------

  void PublishObserved(int router_slot, std::uint64_t v) {
    observed_[router_slot].store(v);
  }

  // True when every registered router has observed a map version >= v.
  // Once true, no router can still be routing by a table older than v, so
  // a slot that owns nothing under every table >= v can never receive a
  // freshly-routed message again (forwards chase shard owners, which by
  // then never name it either).
  bool AllObservedAtLeast(std::uint64_t v) {
    for (int r = 0; r < routers_; ++r) {
      if (observed_[r].load() < v) return false;
    }
    return true;
  }

 private:
  int partitions_ = 0;
  int routers_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<hal::Atomic<std::uint64_t>[]> owner_;
  std::unique_ptr<hal::Atomic<std::uint64_t>[]> route_;
  std::unique_ptr<hal::Atomic<std::uint64_t>[]> observed_;
  hal::Atomic<std::uint64_t> version_{1};
};

// A thread's cached view of the routing table. Hot-path lookups are plain
// array reads; the shared map is touched once per Refresh (one modeled
// load, plus a table copy only when the epoch actually moved).
template <typename Shard>
class LockSpaceRouter {
 public:
  LockSpaceRouter(SpaceMap<Shard>* map, int slot)
      : map_(map),
        slot_(slot),
        owners_(static_cast<std::size_t>(map->partitions()), 0) {
    ORTHRUS_CHECK(slot >= 0 && slot < map->routers());
  }

  // Call once per scheduling quantum. Returns true when the view changed
  // (the caller then re-examines shard ownership — see the handoff
  // protocol in the header comment).
  bool Refresh() {
    std::uint64_t v = map_->version();
    if (v == version_) return false;
    // Re-read the version after copying: a publish that lands mid-copy
    // leaves a torn table (old and new entries mixed) tagged with the old
    // version, so retry until the copy brackets a stable version.
    for (;;) {
      for (int p = 0; p < map_->partitions(); ++p) {
        owners_[static_cast<std::size_t>(p)] =
            static_cast<std::uint32_t>(map_->RouteOf(p));
      }
      const std::uint64_t check = map_->version();
      if (check == v) break;
      v = check;
    }
    version_ = v;
    map_->PublishObserved(slot_, v);
    return true;
  }

  int OwnerOf(int p) const {
    return static_cast<int>(owners_[static_cast<std::size_t>(p)]);
  }
  std::uint64_t version() const { return version_; }

  // Park/retire side: drop out of epoch barriers (we hold no live cached
  // view once parked; the first post-resume Refresh rebuilds it).
  void Deactivate() {
    version_ = 0;  // map versions start at 1: forces the next Refresh
    map_->PublishObserved(slot_, SpaceMap<Shard>::kInactive);
  }

 private:
  SpaceMap<Shard>* map_;
  int slot_;
  std::uint64_t version_ = 0;
  std::vector<std::uint32_t> owners_;
};

}  // namespace orthrus::lock

#endif  // ORTHRUS_LOCK_SPACE_MAP_H_
