#include "rl/reward.hpp"

#include <algorithm>
#include <limits>

namespace mp::rl {

RewardFn RewardCalibration::make_reward(double alpha) const {
  const double range = std::max(1e-12, wl_max - wl_min);
  const double mean = wl_mean;
  return [range, mean, alpha](double wirelength) {
    return (-wirelength + mean) / range + alpha;
  };
}

RewardCalibration calibrate_reward(PlacementEnv& env,
                                   AllocationEvaluator& evaluator, int episodes,
                                   util::Rng& rng,
                                   const util::CancelToken& cancel) {
  RewardCalibration cal;
  cal.wl_max = -std::numeric_limits<double>::infinity();
  cal.wl_min = std::numeric_limits<double>::infinity();
  double sum = 0.0;
  int completed = 0;
  for (int e = 0; e < episodes && !cancel.cancelled(); ++e) {
    env.reset();
    bool ok = true;
    while (!env.done()) {
      const std::vector<int> legal = env.legal_actions();
      if (legal.empty()) {
        ok = false;
        break;
      }
      const int pick = legal[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(legal.size()) - 1))];
      env.step(pick);
    }
    if (!ok) continue;
    const double w = evaluator.evaluate(env.anchors());
    cal.wl_max = std::max(cal.wl_max, w);
    cal.wl_min = std::min(cal.wl_min, w);
    sum += w;
    ++completed;
  }
  if (completed == 0) {
    // Degenerate environment; keep a neutral calibration.
    cal.wl_max = 1.0;
    cal.wl_min = 0.0;
    cal.wl_mean = 0.5;
  } else {
    cal.wl_mean = sum / completed;
    if (cal.wl_max <= cal.wl_min) cal.wl_max = cal.wl_min + 1.0;
  }
  env.reset();
  return cal;
}

RewardFn negative_wirelength_reward() {
  return [](double wirelength) { return -wirelength; };
}

}  // namespace mp::rl
