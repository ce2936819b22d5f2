#pragma once
// Actor-Critic pre-training (Sec. III-D, Algorithm 1 lines 3-10).
//
// Each episode plays the allocation MDP to the end with actions sampled from
// π_θ, evaluates the wirelength W of the terminal allocation, maps it to the
// episode reward r = 𝔇(W) (Eq. 9) which is assigned to *every* step, and
// accumulates the Actor-Critic gradients
//     ∇L_policy = Σ_t ∇[-log p_θ(a_t)] · A_t ,   A_t = R_t − v_θ,t   (Eqs. 5-6)
//     ∇L_value  = Σ_t ∇(A_t²)                                        (Eq. 7)
// through the shared network.  θ is updated every `update_window` episodes
// (30 in the paper).
//
// A window's episodes roll out concurrently on the par:: pool, each on the
// window's frozen θ with its own Rng::split stream; their gradients are then
// replayed serially in episode order on the live network.  The trajectory is
// therefore the same at every pool size, one thread included: the pool size
// changes wall time only (docs/PARALLELISM.md "Parallel self-play").

#include <functional>
#include <vector>

#include "rl/agent.hpp"
#include "rl/reward.hpp"
#include "util/cancel.hpp"

namespace mp::rl {

struct TrainOptions {
  int episodes = 200;
  int update_window = 30;       ///< paper: update θ every 30 episodes
  float learning_rate = 1e-3f;
  double grad_clip = 5.0;
  double alpha = 0.75;          ///< Eq. (9) α (paper range [0.5, 1])
  int calibration_episodes = 50;
  std::uint64_t seed = 42;
  /// Custom reward; when empty, Eq. (9) is calibrated and used.
  RewardFn reward;
  /// Called after every episode with (episode index, reward, wirelength).
  std::function<void(int, double, double)> on_episode;
  /// Cooperative cancellation, polled at rollout-step and episode
  /// boundaries: a cancelled run stops without applying a partial gradient
  /// window and returns the episodes trained so far (TrainResult::cancelled).
  /// Never perturbs an uncancelled run (bit-identity guard, see
  /// docs/SERVICE.md).
  util::CancelToken cancel;
};

struct EpisodeRecord {
  double reward = 0.0;
  double wirelength = 0.0;
};

struct TrainResult {
  std::vector<EpisodeRecord> episodes;
  RewardCalibration calibration;
  double best_wirelength = 0.0;
  std::vector<grid::CellCoord> best_anchors;
  int optimizer_steps = 0;
  bool cancelled = false;  ///< stopped early via TrainOptions::cancel
};

/// Pre-trains `agent` on `env`; wirelengths come from `evaluator`.
TrainResult train_agent(PlacementEnv& env, AllocationEvaluator& evaluator,
                        AgentNetwork& agent, const TrainOptions& options);

/// Plays one greedy (argmax) episode with the current policy and returns the
/// evaluated wirelength; `anchors_out` receives the allocation.  This is the
/// "RL result" the paper compares MCTS against (Fig. 5) and the CT-style
/// RL-only baseline.
double play_greedy_episode(PlacementEnv& env, AllocationEvaluator& evaluator,
                           AgentNetwork& agent,
                           std::vector<grid::CellCoord>& anchors_out);

}  // namespace mp::rl
