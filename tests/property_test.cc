// Property-based tests: sweeps over engines x contention x seeds x core
// counts asserting the invariants that must hold for *every* configuration:
//
//  * conservation — committed transactions account for exactly all row
//    mutations (no lost updates, no phantom effects from aborted attempts);
//  * liveness — every configuration commits work;
//  * policy contracts — deadlock-free / ORTHRUS never abort on static
//    access sets; read-only workloads never abort anywhere;
//  * determinism — simulated runs are bit-reproducible per configuration.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/deadlockfree/deadlockfree_engine.h"
#include "engine/orthrus/orthrus_engine.h"
#include "engine/partitioned/partitioned_engine.h"
#include "engine/twopl/twopl_engine.h"
#include "hal/sim_platform.h"
#include "workload/micro.h"

namespace orthrus {
namespace {

using engine::DeadlockPolicyKind;
using engine::EngineOptions;
using workload::KvConfig;
using workload::KvWorkload;

enum class EngineKind {
  kTwoPlWaitDie,
  kTwoPlGraph,
  kTwoPlDreadlocks,
  kDeadlockFree,
  kPartitioned,
  kOrthrus,
  kOrthrusNoFwd,
};

const char* Name(EngineKind k) {
  switch (k) {
    case EngineKind::kTwoPlWaitDie: return "waitdie";
    case EngineKind::kTwoPlGraph: return "graph";
    case EngineKind::kTwoPlDreadlocks: return "dreadlocks";
    case EngineKind::kDeadlockFree: return "deadlockfree";
    case EngineKind::kPartitioned: return "partitioned";
    case EngineKind::kOrthrus: return "orthrus";
    case EngineKind::kOrthrusNoFwd: return "orthrusnofwd";
  }
  return "?";
}

struct PropertyCase {
  EngineKind engine;
  std::uint64_t hot;   // 0 = uniform
  std::uint64_t seed;
};

std::unique_ptr<engine::Engine> MakeEngine(EngineKind kind,
                                           const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kTwoPlWaitDie:
      return std::make_unique<engine::TwoPlEngine>(
          options, DeadlockPolicyKind::kWaitDie);
    case EngineKind::kTwoPlGraph:
      return std::make_unique<engine::TwoPlEngine>(
          options, DeadlockPolicyKind::kWaitForGraph);
    case EngineKind::kTwoPlDreadlocks:
      return std::make_unique<engine::TwoPlEngine>(
          options, DeadlockPolicyKind::kDreadlocks);
    case EngineKind::kDeadlockFree:
      return std::make_unique<engine::DeadlockFreeEngine>(options);
    case EngineKind::kPartitioned:
      return std::make_unique<engine::PartitionedEngine>(options);
    case EngineKind::kOrthrus: {
      engine::OrthrusOptions oo;
      oo.num_cc = 2;
      return std::make_unique<engine::OrthrusEngine>(options, oo);
    }
    case EngineKind::kOrthrusNoFwd: {
      engine::OrthrusOptions oo;
      oo.num_cc = 2;
      oo.forwarding = false;
      return std::make_unique<engine::OrthrusEngine>(options, oo);
    }
  }
  return nullptr;
}

class ConservationProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ConservationProperty, NoLostOrPhantomUpdates) {
  const PropertyCase& c = GetParam();
  const int kCores = 6;

  KvConfig kv;
  kv.num_records = 4000;
  kv.row_bytes = 64;
  kv.ops_per_txn = 10;
  kv.hot_records = c.hot;
  kv.seed = c.seed;
  const bool partitioned = c.engine == EngineKind::kPartitioned;
  kv.num_partitions = partitioned ? kCores : 2;
  if (partitioned) {
    kv.placement = KvConfig::Placement::kPctMulti;
    kv.pct_multi = 30;
    kv.local_affinity = true;
    kv.hot_records = 0;  // partition targeting replaces the hot set
  }

  KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, partitioned ? kCores : 1);

  EngineOptions options;
  options.num_cores = kCores;
  options.duration_seconds = 0.05;
  options.max_txns_per_worker = 80;

  auto eng = MakeEngine(c.engine, options);
  hal::SimPlatform sim(kCores);
  RunResult r = eng->Run(&sim, &db, wl);

  EXPECT_GT(r.total.committed, 0u) << Name(c.engine);
  EXPECT_EQ(wl.SumCounters(db), r.total.committed * 10u)
      << Name(c.engine) << " seed=" << c.seed << " hot=" << c.hot;

  // Contract: engines that know access sets in advance and order their
  // acquisition never abort (static access sets, no OLLP).
  if (c.engine == EngineKind::kDeadlockFree ||
      c.engine == EngineKind::kOrthrus ||
      c.engine == EngineKind::kOrthrusNoFwd ||
      c.engine == EngineKind::kPartitioned) {
    EXPECT_EQ(r.total.aborted, 0u) << Name(c.engine);
    EXPECT_EQ(r.total.ollp_aborts, 0u) << Name(c.engine);
  }
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  for (EngineKind e :
       {EngineKind::kTwoPlWaitDie, EngineKind::kTwoPlGraph,
        EngineKind::kTwoPlDreadlocks, EngineKind::kDeadlockFree,
        EngineKind::kPartitioned, EngineKind::kOrthrus,
        EngineKind::kOrthrusNoFwd}) {
    for (std::uint64_t hot : {0ull, 128ull, 16ull}) {
      for (std::uint64_t seed : {1ull, 7ull}) {
        cases.push_back({e, hot, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationProperty, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return std::string(Name(info.param.engine)) + "_hot" +
             std::to_string(info.param.hot) + "_seed" +
             std::to_string(info.param.seed);
    });

// Read-only workloads never abort under any engine or contention level.
class ReadOnlyNeverAborts
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ReadOnlyNeverAborts, AnyEngineAnyContention) {
  const auto [engine_idx, hot] = GetParam();
  const EngineKind kinds[] = {EngineKind::kTwoPlWaitDie,
                              EngineKind::kTwoPlDreadlocks,
                              EngineKind::kDeadlockFree, EngineKind::kOrthrus};
  const int kCores = 5;
  KvConfig kv;
  kv.num_records = 4000;
  kv.read_only = true;
  kv.hot_records = hot;
  kv.num_partitions = 2;
  KvWorkload wl(kv);
  storage::Database db;
  wl.Load(&db, 1);
  EngineOptions options;
  options.num_cores = kCores;
  options.duration_seconds = 0.05;
  options.max_txns_per_worker = 60;
  auto eng = MakeEngine(kinds[engine_idx], options);
  hal::SimPlatform sim(kCores);
  RunResult r = eng->Run(&sim, &db, wl);
  EXPECT_GT(r.total.committed, 0u);
  EXPECT_EQ(r.total.aborted, 0u);
  EXPECT_EQ(r.total.deadlocks, 0u);
  // Reads leave no trace.
  EXPECT_EQ(wl.SumCounters(db), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReadOnlyNeverAborts,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0ull, 32ull)));

// Determinism across repeated simulated runs, for every engine.
class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, RepeatRunsAreIdentical) {
  const EngineKind kinds[] = {
      EngineKind::kTwoPlWaitDie,  EngineKind::kTwoPlGraph,
      EngineKind::kTwoPlDreadlocks, EngineKind::kDeadlockFree,
      EngineKind::kOrthrus};
  const EngineKind kind = kinds[GetParam()];
  auto run = [&] {
    const int kCores = 5;
    KvConfig kv;
    kv.num_records = 3000;
    kv.hot_records = 32;
    kv.num_partitions = 2;
    KvWorkload wl(kv);
    storage::Database db;
    wl.Load(&db, 1);
    EngineOptions options;
    options.num_cores = kCores;
    options.duration_seconds = 0.05;
    options.max_txns_per_worker = 60;
    auto eng = MakeEngine(kind, options);
    hal::SimPlatform sim(kCores);
    RunResult r = eng->Run(&sim, &db, wl);
    return std::make_tuple(r.total.committed, r.total.aborted,
                           sim.GlobalClock(), wl.SumCounters(db));
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeterminismProperty,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace orthrus
