#include "rl/trainer.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "util/log.hpp"

namespace mp::rl {

namespace {

// One recorded step of an episode (enough to replay the forward pass).
struct StepRecord {
  std::vector<double> sp;
  std::vector<double> availability;
  int action = 0;
};

// Samples an action from the policy; falls back to a random legal action
// when the sampled one cannot be applied (e.g. mask was all-zero and the
// unmasked softmax proposed an off-chip anchor).
int sample_action(const nn::Tensor& probs, PlacementEnv& env, util::Rng& rng) {
  if (env.allowed_actions() != nullptr) {
    // Trust-region steps (regulate): the unmasked shortcut below would
    // propose out-of-region anchors that env.step rejects, aborting the
    // episode — restrict the draw to the legal masked cells, weighted by
    // the policy.  Unmasked envs keep the original sampling path (and rng
    // stream) bit-for-bit.
    const std::vector<int> legal = env.legal_actions();
    if (legal.empty()) return -1;
    std::vector<double> weights(legal.size());
    for (std::size_t i = 0; i < legal.size(); ++i) {
      const auto p = static_cast<double>(probs[static_cast<std::size_t>(
          legal[i])]);
      weights[i] = std::max(p, 1e-12);  // keep every legal cell reachable
    }
    return legal[static_cast<std::size_t>(rng.categorical(weights))];
  }
  std::vector<double> weights(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    weights[i] = static_cast<double>(probs[i]);
  }
  int action = rng.categorical(weights);
  const grid::Footprint& fp = env.current_footprint();
  const grid::CellCoord anchor = env.spec().coord(action);
  if (anchor.gx + fp.nx <= env.spec().dim() &&
      anchor.gy + fp.ny <= env.spec().dim()) {
    return action;
  }
  const std::vector<int> legal = env.legal_actions();
  if (legal.empty()) return -1;
  return legal[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(legal.size()) - 1))];
}

// Result of one self-play rollout collected by a slot.
struct EpisodeData {
  bool aborted = false;  ///< no legal action, or stopped by the cancel token
  std::vector<StepRecord> steps;
  double wirelength = 0.0;
  std::vector<grid::CellCoord> anchors;
};

// Plays one episode on one slot's resources.  Everything the episode
// touches — env, network, evaluator, rng stream — belongs to the slot for
// the whole rollout phase, so the trajectory is a pure function of the
// frozen parameters and the rng stream, independent of scheduling.
void run_episode(PlacementEnv& env, AllocationEvaluator& evaluator,
                 AgentNetwork& agent, util::Rng rng, int total_steps,
                 const util::CancelToken& cancel, EpisodeData& out) {
  env.reset();
  out.aborted = false;
  out.steps.clear();
  out.steps.reserve(static_cast<std::size_t>(total_steps));
  while (!env.done()) {
    if (cancel.cancelled()) {
      out.aborted = true;
      break;
    }
    StepRecord record;
    record.sp = env.placement_state();
    record.availability = env.availability();
    const AgentOutput o =
        agent.forward(record.sp, record.availability, env.current_step(),
                      total_steps, /*train=*/false);
    if (check::validate_level() >= 1) {
      check::validate_probabilities(o.probs, "rollout policy", "rl.rollout");
    }
    const int action = sample_action(o.probs, env, rng);
    if (action < 0 || !env.step(action)) {
      out.aborted = true;
      break;
    }
    record.action = action;
    out.steps.push_back(std::move(record));
  }
  if (!out.aborted) {
    out.wirelength = evaluator.evaluate(env.anchors());
    out.anchors = env.anchors();
  }
}

}  // namespace

TrainResult train_agent(PlacementEnv& env, AllocationEvaluator& evaluator,
                        AgentNetwork& agent, const TrainOptions& options) {
  TrainResult result;
  util::Rng rng(options.seed);

  RewardFn reward = options.reward;
  if (!reward) {
    result.calibration = calibrate_reward(
        env, evaluator, options.calibration_episodes, rng, options.cancel);
    reward = result.calibration.make_reward(options.alpha);
  }
  // A token that fired before the first episode (before or during the reward
  // calibration, which polls it before each of its random episodes) ends the
  // run with no episodes.  The polls read no RNG state, so they cannot
  // perturb an uncancelled run.
  if (options.cancel.cancelled()) {
    result.cancelled = true;
    result.best_wirelength = std::numeric_limits<double>::infinity();
    env.reset();
    return result;
  }

  nn::Adam optimizer(agent.parameters(), options.learning_rate);
  result.best_wirelength = std::numeric_limits<double>::infinity();
  const int total_steps = env.num_steps();

  // --- Self-play in update windows (docs/PARALLELISM.md) ------------------
  // A window's rollouts run concurrently, one chunk per slot, on the
  // window's frozen θ; gradients are then replayed serially in episode order
  // on the live network, so the parameter trajectory is the same at every
  // pool size.  Slot 0 rolls out on the caller's env, evaluator and network:
  // θ and the BatchNorm running statistics change only in the replay after
  // the rollouts, and rollouts use eval-mode forwards.  Every extra slot
  // rolls out on copies, which compute the same bits; an evaluator that
  // cannot be cloned runs on slot 0 alone.
  struct SlotCopy {
    PlacementEnv env;
    std::unique_ptr<AllocationEvaluator> evaluator;
    std::unique_ptr<AgentNetwork> agent;
  };
  const int width =
      std::min(par::current_threads(), std::max(1, options.update_window));
  std::vector<SlotCopy> copies;
  copies.reserve(static_cast<std::size_t>(width - 1));
  for (int s = 1; s < width; ++s) {
    std::unique_ptr<AllocationEvaluator> clone = evaluator.clone();
    if (clone == nullptr) break;
    copies.push_back({env, std::move(clone), agent.clone()});
  }
  const int nslots = 1 + static_cast<int>(copies.size());

  int episode = 0;
  while (episode < options.episodes) {
    if (options.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    const int window =
        std::min(options.update_window, options.episodes - episode);
    // Freeze θ for the window's rollouts.
    for (SlotCopy& copy : copies) copy.agent->copy_parameters_from(agent);
    std::vector<EpisodeData> data(static_cast<std::size_t>(window));
    {
      MP_OBS_SPAN("rl.rollout");
      // One chunk per slot; chunk s is the only user of slot s, and every
      // episode's trajectory depends only on its own rng stream and the
      // frozen snapshot — not on the slot that ran it.
      par::parallel_for(
          0, static_cast<std::size_t>(nslots), 1,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
              SlotCopy* copy = s == 0 ? nullptr : &copies[s - 1];
              for (int k = static_cast<int>(s); k < window; k += nslots) {
                run_episode(copy ? copy->env : env,
                            copy ? *copy->evaluator : evaluator,
                            copy ? *copy->agent : agent,
                            rng.split(static_cast<std::uint64_t>(episode + k)),
                            total_steps, options.cancel,
                            data[static_cast<std::size_t>(k)]);
              }
            }
          });
    }

    // A window interrupted mid-rollout is discarded whole: applying the
    // gradients of a partial window would make the cancelled trajectory
    // diverge from any uncancelled run in an uncontrolled way.
    if (options.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }

    // --- Gradient accumulation (replay with train-mode forwards) ---
    MP_OBS_SPAN("rl.update");
    for (int k = 0; k < window; ++k) {
      const int e = episode + k;
      EpisodeData& d = data[static_cast<std::size_t>(k)];
      MP_OBS_COUNT("rl.episodes", 1);
      if (d.aborted) {
        MP_OBS_COUNT("rl.episodes_aborted", 1);
        util::log_warn() << "train_agent: episode " << e
                         << " aborted (no legal action)";
        continue;
      }
      const double r = reward(d.wirelength);
      if (check::validate_level() >= 1) {
        MP_CHECK_FINITE(d.wirelength, "episode wirelength");
        MP_CHECK_GE(d.wirelength, 0.0, "episode wirelength");
        // A non-finite reward would feed straight into every advantage of
        // the replay below and from there into the parameter gradients.
        MP_CHECK_FINITE(r, "episode reward (wirelength=%g)", d.wirelength);
      }
      MP_OBS_HIST("rl.reward", r);
      MP_OBS_HIST("rl.episode_wirelength", d.wirelength);
      result.episodes.push_back({r, d.wirelength});
      if (d.wirelength < result.best_wirelength) {
        result.best_wirelength = d.wirelength;
        result.best_anchors = d.anchors;
      }
      if (options.on_episode) options.on_episode(e, r, d.wirelength);

      const float inv_steps = 1.0f / static_cast<float>(
                                  std::max<std::size_t>(1, d.steps.size()));
      double value_loss = 0.0;
      for (std::size_t t = 0; t < d.steps.size(); ++t) {
        const StepRecord& record = d.steps[t];
        const AgentOutput out =
            agent.forward(record.sp, record.availability, static_cast<int>(t),
                          total_steps, /*train=*/true);
        const float advantage = static_cast<float>(r) - out.value;  // Eq. (6)
        if (check::validate_level() >= 1) {
          MP_CHECK_FINITE(out.value, "value head output during replay");
          MP_CHECK_FINITE(advantage, "advantage during replay");
        }
        value_loss += static_cast<double>(advantage) * advantage;
        const nn::Tensor policy_grad = nn::policy_gradient(
            out.probs, record.action, advantage * inv_steps);     // Eq. (5)
        const float value_grad = -2.0f * advantage * inv_steps;   // Eq. (7)
        agent.backward(policy_grad, value_grad);
      }
      if (!d.steps.empty()) {
        // Mean squared advantage — the value-head loss the update descends.
        MP_OBS_HIST("rl.value_loss",
                    value_loss / static_cast<double>(d.steps.size()));
      }
    }

    // --- One parameter update per window (paper: every 30 episodes) ---
    // Windows are fixed blocks of update_window episodes; an aborted
    // episode does not stretch its window.
    optimizer.clip_grad_norm(options.grad_clip);
    optimizer.step();
    ++result.optimizer_steps;
    MP_OBS_COUNT("rl.optimizer_steps", 1);
    if (check::validate_level() >= 2) {
      // Exhaustive mode: the update must leave every weight finite, or the
      // next forward silently produces garbage policies.
      for (const nn::Parameter* p : agent.parameters()) {
        check::validate_tensor_finite(p->value, "agent parameter",
                                      "rl.optimizer_step");
      }
    }
    episode += window;
  }
  env.reset();
  return result;
}

double play_greedy_episode(PlacementEnv& env, AllocationEvaluator& evaluator,
                           AgentNetwork& agent,
                           std::vector<grid::CellCoord>& anchors_out) {
  env.reset();
  const int total_steps = env.num_steps();
  while (!env.done()) {
    const std::vector<double> sp = env.placement_state();
    const std::vector<double> availability = env.availability();
    const AgentOutput out = agent.forward(sp, availability, env.current_step(),
                                          total_steps, /*train=*/false);
    // Argmax over applicable actions.
    int best = -1;
    float best_p = -1.0f;
    const grid::Footprint& fp = env.current_footprint();
    for (int a = 0; a < env.spec().num_cells(); ++a) {
      const grid::CellCoord anchor = env.spec().coord(a);
      if (anchor.gx + fp.nx > env.spec().dim() ||
          anchor.gy + fp.ny > env.spec().dim()) {
        continue;
      }
      if (out.probs[static_cast<std::size_t>(a)] > best_p) {
        best_p = out.probs[static_cast<std::size_t>(a)];
        best = a;
      }
    }
    if (best < 0 || !env.step(best)) {
      // Should not happen (every design fits); bail with the worst value.
      anchors_out.clear();
      return std::numeric_limits<double>::infinity();
    }
  }
  anchors_out = env.anchors();
  const double w = evaluator.evaluate(anchors_out);
  env.reset();
  return w;
}

}  // namespace mp::rl
