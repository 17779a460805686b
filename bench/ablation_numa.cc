// Ablation: NUMA-aware placement (hal::Topology + hal::SlabArena) on a
// modeled two-socket machine.
//
// The sim models two sockets (SimConfig::sockets = 2): a line transfer
// whose holder sits on the requester's socket costs local_transfer_cycles
// and bypasses the shared interconnect; a remote one pays the full
// transfer cost plus fabric occupancy. Row reads and writes are
// compute-charged, not coherence-modeled, so what the socket boundary
// actually taxes is the messaging fabric: the index and payload lines of
// the per-pair SPSC rings between exec and CC threads. The placement arm
// hands the engine a matching hal::Topology: CC threads (plus their lock
// partitions, log streams, and arena-homed ring slabs) pack onto socket 0
// and the exec group onto the remainder — with num_cc = cores/2 the whole
// exec group lands on socket 1, so each exec thread's grant rings and TCBs
// live on its own node. Without a topology the OS-order identity map
// scatters both roles across sockets.
#include <string>
#include <vector>

#include "bench/common/bench_harness.h"
#include "hal/slab_arena.h"
#include "hal/topology.h"

namespace {

using namespace orthrus;
using namespace orthrus::bench;

RunResult RunNumaPoint(engine::Engine* eng, workload::Workload* wl,
                       int cores, int partitioner_n,
                       const hal::SimConfig& cfg, hal::SlabArena* arena) {
  storage::Database db;
  if (arena != nullptr) db.set_arena(arena);
  wl->Load(&db, 1);
  if (partitioner_n != 0) db.partitioner().n = partitioner_n;
  hal::SimPlatform sim(cores, cfg);
  return eng->Run(&sim, &db, *wl);
}

}  // namespace

int main() {
  const int kSockets = 2;

  hal::SimConfig cfg;
  cfg.sockets = kSockets;

  JsonFigure("ablation_numa");

  // Placement on/off across contention levels. 32 cores, 16 CC: the exec
  // group exactly fills socket 1 under placement.
  const int kCores = 32;
  const int kCc = kCores / 2;
  const hal::Topology topo = hal::Topology::Modeled(kCores, kSockets);

  struct Point {
    const char* label;
    std::uint64_t hot_records;  // 0 = uniform
  };
  const std::vector<Point> points = {
      {"uniform", 0}, {"hot4096", 4096}, {"hot256", 256}};
  std::vector<std::string> xs;
  for (const Point& p : points) xs.push_back(p.label);
  PrintHeader("Ablation: NUMA placement, 32 cores / 2 sockets",
              "tput (M/s) @hotset", xs);

  for (const bool placed : {false, true}) {
    std::vector<double> tputs;
    for (const Point& p : points) {
      workload::KvConfig kv;
      kv.num_records = KvRecords();
      kv.row_bytes = KvRowBytes();
      kv.num_partitions = kCc;
      kv.hot_records = p.hot_records;
      kv.hot_ops = p.hot_records > 0 ? 2 : 0;
      kv.seed = 91;
      workload::KvWorkload wl(kv);
      engine::EngineOptions eo = BenchOptions(kCores);
      // Row slabs from a node-0 arena in the placement arm (the loader
      // runs before workers exist, so the arena's node binding is the only
      // placement lever storage has; in the sim it exercises the same
      // allocation path native NUMA binding uses).
      hal::SlabArena arena;
      if (placed) eo.topology = &topo;
      engine::OrthrusOptions oo;
      oo.num_cc = kCc;
      engine::OrthrusEngine eng(eo, oo);
      RunResult r = RunNumaPoint(&eng, &wl, kCores, kCc, cfg,
                                 placed ? &arena : nullptr);
      tputs.push_back(r.Throughput());
      JsonPoint(placed ? "placement" : "no-placement", p.label, r);
    }
    PrintRow(placed ? "placement (topology)" : "no placement", tputs);
  }

  return 0;
}
