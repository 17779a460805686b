#include "engine/autotune.h"

#include "hal/sim_platform.h"

namespace orthrus::engine {

AutotuneResult AutotuneThreadSplit(int total_cores,
                                   workload::Workload* workload,
                                   AutotuneOptions options) {
  ORTHRUS_CHECK(total_cores >= 2);
  std::vector<int> candidates = options.candidates;
  if (candidates.empty()) {
    for (int c = 1; c < total_cores; c *= 2) candidates.push_back(c);
  }

  AutotuneResult result;
  for (int num_cc : candidates) {
    if (num_cc < 1 || num_cc >= total_cores) continue;

    storage::Database db;
    workload->Load(&db, 1);
    db.partitioner().n = num_cc;

    EngineOptions eo;
    eo.num_cores = total_cores;
    eo.duration_seconds = options.probe_seconds;
    OrthrusOptions oo = options.orthrus;
    oo.num_cc = num_cc;
    OrthrusEngine engine(eo, oo);

    hal::SimPlatform sim(total_cores);
    const RunResult r = engine.Run(&sim, &db, *workload);
    const double tput = r.Throughput();
    result.probes.push_back({num_cc, tput});
    if (tput > result.best_throughput) {
      result.best_throughput = tput;
      result.best_num_cc = num_cc;
    }
  }
  ORTHRUS_CHECK_MSG(!result.probes.empty(), "no valid autotune candidates");
  return result;
}

}  // namespace orthrus::engine
