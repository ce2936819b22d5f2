#pragma once
// Reward shaping (Sec. III-E, Eq. 9).  Before training, the environment is
// played randomly for a number of episodes; the maximum δ, minimum γ and
// mean Δ of the observed wirelengths calibrate the reward
//     𝔇(W) = (−W + Δ) / (δ − γ) + α ,
// which keeps episode rewards slightly above zero for α ∈ [0.5, 1] — the
// regime the paper shows converges fastest (Fig. 4).

#include <functional>

#include "rl/env.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace mp::rl {

/// Maps a measured wirelength W to a scalar reward.
using RewardFn = std::function<double(double wirelength)>;

struct RewardCalibration {
  double wl_max = 1.0;   ///< δ
  double wl_min = 0.0;   ///< γ
  double wl_mean = 0.5;  ///< Δ

  /// Eq. (9) with the given α.
  RewardFn make_reward(double alpha) const;
};

/// Plays `episodes` uniformly-random episodes, evaluating each final
/// allocation, and returns the observed wirelength statistics.  `cancel` is
/// polled before each episode; once it fires, the statistics of the
/// episodes played so far are returned.  The poll reads no RNG state, so an
/// untriggered token leaves the result bit-identical.
RewardCalibration calibrate_reward(PlacementEnv& env,
                                   AllocationEvaluator& evaluator,
                                   int episodes, util::Rng& rng,
                                   const util::CancelToken& cancel = {});

/// The "intuitive" baseline reward −W (Fig. 4b).
RewardFn negative_wirelength_reward();

}  // namespace mp::rl
