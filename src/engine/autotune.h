// Thread-allocation auto-tuning (Section 4.2).
//
// ORTHRUS must split a fixed core budget between concurrency-control and
// execution threads; Figure 5 shows the throughput consequences of getting
// it wrong (too few exec threads under-use the CC threads, and vice versa).
// The split is fixed for a run, so it is tuned before the run:
// AutotuneThreadSplit probes candidate splits with short deterministic
// simulator runs of the actual workload and picks the best.
#ifndef ORTHRUS_ENGINE_AUTOTUNE_H_
#define ORTHRUS_ENGINE_AUTOTUNE_H_

#include <vector>

#include "engine/orthrus/orthrus_engine.h"

namespace orthrus::engine {

struct AutotuneResult {
  int best_num_cc = 0;
  double best_throughput = 0;
  // One entry per probed candidate, in probe order.
  struct Probe {
    int num_cc;
    double throughput;
  };
  std::vector<Probe> probes;
};

struct AutotuneOptions {
  // Candidate CC-thread counts; empty = powers of two up to half the cores.
  std::vector<int> candidates;
  // Virtual seconds per probe run.
  double probe_seconds = 0.002;
  OrthrusOptions orthrus;  // num_cc is overridden per probe
};

// Probes candidate CC/exec splits of `total_cores` on fresh simulator
// instances running `workload`, and returns the split with the highest
// measured throughput. Loads a fresh database per probe via the workload
// (unsplit tables; the database partitioner is set to the probed CC count).
// Note: use partition-agnostic workloads (uniform key placement) — the
// probe overrides the database partitioner per candidate, which would
// disagree with a generator targeting a fixed partition universe.
AutotuneResult AutotuneThreadSplit(int total_cores,
                                   workload::Workload* workload,
                                   AutotuneOptions options = {});

}  // namespace orthrus::engine

#endif  // ORTHRUS_ENGINE_AUTOTUNE_H_
