// Tests for the NUMA placement subsystem: hal::Topology (modeled and
// discovered socket maps, socket-major group packing), hal::SlabArena
// (line-aligned zeroed carving, node-keyed arena sets), the simulator's
// two-socket cost model (local transfers cheaper than remote, determinism
// with placement on), and the byte-identity guarantee when placement is
// off. The *Native* cases stress placed, pinned runs on real threads and
// are part of the TSan CI lane.
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/orthrus/orthrus_engine.h"
#include "hal/native_platform.h"
#include "hal/sim_platform.h"
#include "hal/slab_arena.h"
#include "hal/topology.h"
#include "workload/micro.h"

namespace orthrus {
namespace {

using engine::EngineOptions;
using engine::OrthrusEngine;
using engine::OrthrusOptions;
using workload::KvConfig;
using workload::KvWorkload;

TEST(Topology, ModeledMatchesSimSocketMap) {
  // Core i on socket i % sockets — the same map SimPlatform uses, so
  // placement decisions and modeled transfer costs agree.
  const hal::Topology t = hal::Topology::Modeled(8, 2);
  EXPECT_EQ(t.num_cores(), 8);
  EXPECT_EQ(t.num_sockets(), 2);
  EXPECT_FALSE(t.flat());
  for (int c = 0; c < 8; ++c) EXPECT_EQ(t.SocketOf(c), c % 2);
  EXPECT_EQ(t.CoresOn(0), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(t.CoresOn(1), (std::vector<int>{1, 3, 5, 7}));
}

TEST(Topology, FlatAndDefaultOptionsAreFlat) {
  EXPECT_TRUE(hal::Topology::Flat(16).flat());
  // TopologyOptions{} is the "placement off" state.
  EXPECT_TRUE(hal::Topology::Make(hal::TopologyOptions{}, 8).flat());
  EXPECT_FALSE(
      hal::Topology::Make(hal::TopologyOptions{.sockets = 2}, 8).flat());
}

TEST(Topology, DiscoverReturnsUsableTopology) {
  // Whatever the host looks like (or the flat fallback), the result must
  // be internally consistent: every core maps to a socket that lists it.
  const hal::Topology t = hal::Topology::Discover();
  ASSERT_GE(t.num_cores(), 1);
  ASSERT_GE(t.num_sockets(), 1);
  for (int c = 0; c < t.num_cores(); ++c) {
    const int s = t.SocketOf(c);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, t.num_sockets());
    const auto& on = t.CoresOn(s);
    EXPECT_NE(std::find(on.begin(), on.end(), c), on.end());
  }
}

TEST(Topology, PackGroupsIsSocketMajor) {
  // Group 0 (CC) fills socket 0's cores first; group 1 (exec) takes the
  // remainder. Worker ids key the result regardless of listing order.
  const hal::Topology t = hal::Topology::Modeled(8, 2);
  const std::vector<int> m =
      t.PackGroups({{0, 1, 2}, {3, 4, 5, 6, 7}});
  EXPECT_EQ(m, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
  // On a flat topology socket-major order degenerates to identity.
  const hal::Topology f = hal::Topology::Flat(4);
  EXPECT_EQ(f.PackGroups({{0, 1}, {2, 3}}),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(SlabArena, CarvesAlignedZeroedChunks) {
  hal::SlabArena arena;
  void* a = arena.Allocate(100);  // default 64-byte (line) alignment
  void* b = arena.Allocate(8, 512);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 512, 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t*>(a)[i], 0);
  }
  std::uint64_t* arr = arena.AllocateArray<std::uint64_t>(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(arr[i], 0u);
  EXPECT_GE(arena.bytes_used(), 100 + 8 + 8000u);
}

TEST(SlabArena, GrowsAcrossSlabs) {
  hal::SlabArenaOptions opts;
  opts.slab_bytes = 1u << 16;
  hal::SlabArena arena(opts);
  for (int i = 0; i < 40; ++i) {
    void* p = arena.Allocate(8 << 10);
    ASSERT_NE(p, nullptr);
  }
  EXPECT_GT(arena.slabs(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(SlabArena, NodeArenaSetIsLazyAndKeyed) {
  hal::NodeArenaSet set;
  hal::SlabArena* unbound = set.ForNode(-1);
  EXPECT_EQ(unbound, set.ForNode(-1));
  EXPECT_EQ(unbound->node(), -1);
  hal::SlabArena* n0 = set.ForNode(0);
  hal::SlabArena* n1 = set.ForNode(1);
  EXPECT_NE(n0, n1);
  EXPECT_NE(n0, unbound);
  EXPECT_EQ(n0->node(), 0);
  EXPECT_EQ(n1->node(), 1);
  EXPECT_EQ(n0, set.ForNode(0));
}

// Measures the cost of one atomic load on `reader` after `owner` has taken
// the line, on a 4-core / 2-socket sim (cores 0,2 on socket 0; 1,3 on 1).
hal::Cycles ReadCostFrom(int reader) {
  hal::SimConfig cfg;
  cfg.sockets = 2;
  hal::SimPlatform sim(4, cfg);
  hal::Atomic<std::uint64_t> line;
  hal::Cycles cost = 0;
  sim.Spawn(0, [&] { line.fetch_add(1); });  // own the line at t=0
  sim.Spawn(reader, [&] {
    hal::ConsumeCycles(50000);
    const hal::Cycles t0 = hal::Now();
    (void)line.load();
    cost = hal::Now() - t0;
  });
  sim.Run();
  return cost;
}

TEST(SimNuma, LocalTransfersCheaperThanRemote) {
  hal::SimConfig cfg;
  const hal::Cycles local = ReadCostFrom(/*reader=*/2);   // same socket
  const hal::Cycles remote = ReadCostFrom(/*reader=*/1);  // across sockets
  EXPECT_LT(local, remote);
  // Local transfers bypass the interconnect: cost is bounded by the local
  // hop plus the owner's RMW service window, with no fabric queueing term.
  EXPECT_LE(local, cfg.local_transfer_cycles + cfg.rmw_service_cycles + 4);
  EXPECT_GE(remote, cfg.remote_transfer_cycles);
}

// One small deterministic engine run; returns the digest-relevant tuple.
std::tuple<std::uint64_t, std::uint64_t, hal::Cycles> EngineRun(
    const hal::Topology* topo, int sockets, bool shared_cc = false) {
  KvConfig kv;
  kv.num_records = 4000;
  kv.hot_records = 16;
  kv.num_partitions = 2;
  KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  EngineOptions eo;
  eo.num_cores = 6;
  eo.duration_seconds = 0.05;
  eo.max_txns_per_worker = 120;
  eo.lock_buckets = 1 << 12;
  eo.topology = topo;
  OrthrusOptions oo;
  oo.num_cc = 2;
  oo.shared_cc_table = shared_cc;
  OrthrusEngine eng(eo, oo);
  hal::SimConfig cfg;
  cfg.sockets = sockets;
  hal::SimPlatform sim(6, cfg);
  RunResult r = eng.Run(&sim, &db, wl);
  return {r.total.committed, wl.SumCounters(db), sim.GlobalClock()};
}

TEST(SimNuma, FlatTopologyIsByteIdentical) {
  // The placement-off contract: no topology, an explicit flat topology,
  // and a sockets=1 sim config all produce the same schedule — committed
  // count, row effects, and the global sim clock.
  const hal::Topology flat = hal::Topology::Flat(6);
  const auto none = EngineRun(nullptr, 1);
  const auto with_flat = EngineRun(&flat, 1);
  EXPECT_GT(std::get<0>(none), 0u);
  EXPECT_EQ(none, with_flat);
}

TEST(SimNuma, PlacementIsDeterministic) {
  // With two modeled sockets and a matching topology, runs repeat exactly
  // (placement must not introduce schedule nondeterminism), commits land,
  // and effects conserve — with partitioned CC tables and with the shared
  // table (Section 3.4), whose CC threads run on placed cores.
  const hal::Topology topo = hal::Topology::Modeled(6, 2);
  for (bool shared_cc : {false, true}) {
    SCOPED_TRACE(shared_cc ? "shared-cc" : "partitioned-cc");
    const auto a = EngineRun(&topo, 2, shared_cc);
    const auto b = EngineRun(&topo, 2, shared_cc);
    EXPECT_GT(std::get<0>(a), 0u);
    EXPECT_EQ(std::get<1>(a), std::get<0>(a) * 10);
    EXPECT_EQ(a, b);
  }
}

TEST(SlabArena, NativeNodeBindingAndHugePagesDegrade) {
  // mbind and MAP_HUGETLB are best-effort: on hosts without multiple NUMA
  // nodes or reserved huge pages, allocation must still succeed.
  hal::SlabArenaOptions opts;
  opts.node = 0;
  opts.huge_pages = true;
  hal::SlabArena arena(opts);
  std::uint64_t* p = arena.AllocateArray<std::uint64_t>(1 << 16);
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[(1 << 16) - 1] = 2;
  EXPECT_EQ(p[0] + p[(1 << 16) - 1], 3u);
}

TEST(Placement, NativePinnedArenaBackedRun) {
  // Full stack on real threads: modeled topology placement, pinned
  // workers, arena-backed tables and rings. TSan covers the cross-thread
  // handoffs.
  const hal::Topology topo = hal::Topology::Modeled(6, 2);
  KvConfig kv;
  kv.num_records = 8000;
  kv.num_partitions = 2;
  KvWorkload wl(kv);
  hal::SlabArena arena;
  storage::Database db;
  db.set_arena(&arena);
  wl.Load(&db, 1);
  EngineOptions eo;
  eo.num_cores = 6;
  eo.duration_seconds = 0.05;  // wall seconds on the native platform
  eo.topology = &topo;
  OrthrusOptions oo;
  oo.num_cc = 2;
  OrthrusEngine eng(eo, oo);
  hal::NativePlatform p(6);
  p.SetPinThreads(true);
  RunResult r = eng.Run(&p, &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);
}

TEST(Placement, NativePlacedMeshStress) {
  // Placement-homed per-pair rings under true concurrency: four CC
  // threads packed on socket 0 forward acquisition chains among
  // themselves while every exec thread sends across to them from
  // socket 1 — the configuration the NUMA ablation leans on. The
  // shared-table arm (Section 3.4) has the placed CC threads hand parked
  // acquisitions to one another through the stripe latches instead.
  const hal::Topology topo = hal::Topology::Modeled(8, 2);
  for (bool shared_cc : {false, true}) {
    SCOPED_TRACE(shared_cc ? "shared-cc" : "partitioned-cc");
    KvConfig kv;
    kv.num_records = 8000;
    kv.num_partitions = 4;
    KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    EngineOptions eo;
    eo.num_cores = 8;
    eo.duration_seconds = 0.05;
    eo.topology = &topo;
    OrthrusOptions oo;
    oo.num_cc = 4;
    oo.shared_cc_table = shared_cc;
    OrthrusEngine eng(eo, oo);
    hal::NativePlatform p(8);
    p.SetPinThreads(true);
    RunResult r = eng.Run(&p, &db, wl);
    EXPECT_GT(r.total.committed, 0u);
    EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10);
  }
}

}  // namespace
}  // namespace orthrus
