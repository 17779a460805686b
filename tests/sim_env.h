// Simulator configuration shared by the sim test suites.
//
// CI race arm: ORTHRUS_RACE_DETECT=1 reruns a suite with happens-before
// checking on and abort-on-first-race. Detection never perturbs the
// schedule, so every exact count and digest must still hold under it.
#ifndef ORTHRUS_TESTS_SIM_ENV_H_
#define ORTHRUS_TESTS_SIM_ENV_H_

#include <cstdlib>

#include "hal/sim_platform.h"

namespace orthrus {

inline hal::SimConfig SimConfigFromEnv() {
  hal::SimConfig config;
  if (std::getenv("ORTHRUS_RACE_DETECT") != nullptr) {
    config.race_detect = true;
    config.race_report_fatal = true;
  }
  return config;
}

}  // namespace orthrus

#endif  // ORTHRUS_TESTS_SIM_ENV_H_
