// Tests for the RL stack: environment mechanics, reward calibration, agent
// network shapes/gradients, and a short end-to-end training run.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "benchgen/generator.hpp"
#include "cluster/clustering.hpp"
#include "cluster/coarse.hpp"
#include "gp/global_placer.hpp"
#include "place/flow.hpp"
#include "rl/agent.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"

namespace mp::rl {
namespace {

struct EnvFixture {
  netlist::Design design;
  place::FlowContext context;

  explicit EnvFixture(std::uint64_t seed, int macros = 12, int grid_dim = 4) {
    benchgen::BenchSpec spec;
    spec.movable_macros = macros;
    spec.std_cells = 200;
    spec.nets = 300;
    spec.seed = seed;
    design = benchgen::generate(spec);
    place::FlowOptions options;
    options.grid_dim = grid_dim;
    options.initial_gp.max_iterations = 3;
    context = place::prepare_flow(design, options);
  }
};

TEST(Env, StepSequenceCompletes) {
  EnvFixture f(50);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  EXPECT_EQ(env.num_steps(),
            static_cast<int>(f.context.clustering.macro_groups.size()));
  EXPECT_FALSE(env.done());
  int steps = 0;
  while (!env.done()) {
    const auto legal = env.legal_actions();
    ASSERT_FALSE(legal.empty());
    ASSERT_TRUE(env.step(legal.front()));
    ++steps;
  }
  EXPECT_EQ(steps, env.num_steps());
  EXPECT_EQ(env.anchors().size(), static_cast<std::size_t>(steps));
}

TEST(Env, ResetClearsState) {
  EnvFixture f(51);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  env.step(env.legal_actions().front());
  env.reset();
  EXPECT_EQ(env.current_step(), 0);
  EXPECT_TRUE(env.anchors().empty());
  // s_p must be back to the initial (preplaced-only) map.
  const auto sp = env.placement_state();
  double total = 0.0;
  for (double v : sp) total += v;
  EXPECT_NEAR(total, 0.0, 1e-9);  // this fixture has no preplaced macros
}

TEST(Env, InvalidActionsRejected) {
  EnvFixture f(52);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  EXPECT_FALSE(env.step(-1));
  EXPECT_FALSE(env.step(env.spec().num_cells()));
  EXPECT_EQ(env.current_step(), 0);
}

TEST(Env, OccupancyGrowsMonotonically) {
  EnvFixture f(53);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  double prev = 0.0;
  while (!env.done()) {
    const auto sp = env.placement_state();
    double total = 0.0;
    for (double v : sp) total += v;
    EXPECT_GE(total, prev - 1e-9);
    prev = total;
    env.step(env.legal_actions().front());
  }
}

TEST(Env, AvailabilityConsistentWithState) {
  EnvFixture f(54);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  const auto availability = env.availability();
  EXPECT_EQ(availability.size(),
            static_cast<std::size_t>(env.spec().num_cells()));
  for (double v : availability) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Env, PreplacedMacrosPrefillOccupancy) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 4;
  spec.preplaced_macros = 4;
  spec.std_cells = 100;
  spec.nets = 150;
  spec.hierarchy = true;
  spec.seed = 55;
  netlist::Design design = benchgen::generate(spec);
  place::FlowOptions options;
  options.grid_dim = 4;
  options.initial_gp.max_iterations = 2;
  place::FlowContext context = place::prepare_flow(design, options);
  PlacementEnv env(context.coarse, context.clustering, context.spec);
  const auto sp = env.placement_state();
  double total = 0.0;
  for (double v : sp) total += v;
  EXPECT_GT(total, 0.0) << "preplaced macros should occupy grid area";
}

TEST(CoarseEvaluator, DifferentAllocationsGiveDifferentWirelength) {
  EnvFixture f(56);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);

  // All groups stacked on one cell vs spread on the diagonal.
  const int n = env.num_steps();
  std::vector<grid::CellCoord> stacked(static_cast<std::size_t>(n), {0, 0});
  std::vector<grid::CellCoord> spread;
  for (int i = 0; i < n; ++i) {
    const int k = i % f.context.spec.dim();
    spread.push_back({k, k});
  }
  const double w_stacked = evaluator.evaluate(stacked);
  const double w_spread = evaluator.evaluate(spread);
  EXPECT_GT(w_stacked, 0.0);
  EXPECT_GT(w_spread, 0.0);
  EXPECT_NE(w_stacked, w_spread);
  EXPECT_EQ(evaluator.evaluations(), 2);
}

TEST(CoarseEvaluator, DeterministicForSameAllocation) {
  EnvFixture f(57);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);
  const int n = static_cast<int>(f.context.clustering.macro_groups.size());
  std::vector<grid::CellCoord> anchors;
  for (int i = 0; i < n; ++i) anchors.push_back({i % 4, (i / 4) % 4});
  const double w1 = evaluator.evaluate(anchors);
  const double w2 = evaluator.evaluate(anchors);
  EXPECT_DOUBLE_EQ(w1, w2);
}

TEST(Reward, CalibrationBoundsAndMean) {
  EnvFixture f(58);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);
  util::Rng rng(1);
  const RewardCalibration cal = calibrate_reward(env, evaluator, 20, rng);
  EXPECT_GE(cal.wl_max, cal.wl_mean);
  EXPECT_GE(cal.wl_mean, cal.wl_min);
  EXPECT_GT(cal.wl_min, 0.0);
}

TEST(Reward, Equation9Shape) {
  RewardCalibration cal;
  cal.wl_max = 200.0;
  cal.wl_min = 100.0;
  cal.wl_mean = 150.0;
  const RewardFn reward = cal.make_reward(0.75);
  // Mean wirelength maps to exactly alpha.
  EXPECT_NEAR(reward(150.0), 0.75, 1e-12);
  // Better (smaller) wirelength gives larger reward.
  EXPECT_GT(reward(120.0), reward(180.0));
  // Range-normalized: min/max map to alpha ± 0.5.
  EXPECT_NEAR(reward(100.0), 1.25, 1e-12);
  EXPECT_NEAR(reward(200.0), 0.25, 1e-12);
}

TEST(Reward, NegativeWirelengthBaseline) {
  const RewardFn reward = negative_wirelength_reward();
  EXPECT_DOUBLE_EQ(reward(123.0), -123.0);
}

TEST(Agent, ForwardShapesAndProbabilities) {
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  const std::vector<double> sp(16, 0.25);
  std::vector<double> availability(16, 1.0);
  availability[3] = 0.0;
  const AgentOutput out = agent.forward(sp, availability, 2, 10, false);
  ASSERT_EQ(out.probs.size(), 16u);
  double sum = 0.0;
  for (std::size_t i = 0; i < out.probs.size(); ++i) sum += out.probs[i];
  EXPECT_NEAR(sum, 1.0, 1e-5);
  EXPECT_FLOAT_EQ(out.probs[3], 0.0f);  // masked action
  EXPECT_TRUE(std::isfinite(out.value));
}

TEST(Agent, ValueDependsOnStepEmbedding) {
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  config.seed = 3;
  AgentNetwork agent(config);
  const std::vector<double> sp(16, 0.5);
  const std::vector<double> availability(16, 1.0);
  const float v0 = agent.forward(sp, availability, 0, 10, false).value;
  const float v9 = agent.forward(sp, availability, 9, 10, false).value;
  EXPECT_NE(v0, v9) << "t embedding should influence the value head";
}

TEST(Agent, BackwardChangesParametersViaOptimizer) {
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  nn::Adam optimizer(agent.parameters(), 1e-2f);
  const std::vector<double> sp(16, 0.1);
  const std::vector<double> availability(16, 1.0);
  const AgentOutput out = agent.forward(sp, availability, 0, 5, true);
  const nn::Tensor pgrad = nn::policy_gradient(out.probs, 5, 1.0f);
  agent.backward(pgrad, -2.0f);
  const float before = agent.parameters()[0]->value[0];
  optimizer.step();
  const float after = agent.parameters()[0]->value[0];
  EXPECT_NE(before, after);
}

TEST(Agent, ParameterCountReasonable) {
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 2;
  AgentNetwork agent(config);
  EXPECT_GT(agent.num_parameters(), 1000u);
  EXPECT_LT(agent.num_parameters(), 1000000u);
}

TEST(Trainer, ShortRunProducesEpisodesAndUpdates) {
  EnvFixture f(60, /*macros=*/8, /*grid_dim=*/4);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);

  TrainOptions options;
  options.episodes = 12;
  options.update_window = 4;
  options.calibration_episodes = 5;
  int callbacks = 0;
  options.on_episode = [&](int, double, double) { ++callbacks; };
  const TrainResult result = train_agent(env, evaluator, agent, options);

  EXPECT_EQ(result.episodes.size(), 12u);
  EXPECT_EQ(callbacks, 12);
  EXPECT_EQ(result.optimizer_steps, 3);
  EXPECT_TRUE(std::isfinite(result.best_wirelength));
  EXPECT_FALSE(result.best_anchors.empty());
  for (const EpisodeRecord& e : result.episodes) {
    EXPECT_TRUE(std::isfinite(e.reward));
    EXPECT_GT(e.wirelength, 0.0);
  }
}

TEST(Trainer, GreedyEpisodeIsDeterministic) {
  EnvFixture f(61, 8, 4);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  std::vector<grid::CellCoord> a1, a2;
  const double w1 = play_greedy_episode(env, evaluator, agent, a1);
  const double w2 = play_greedy_episode(env, evaluator, agent, a2);
  EXPECT_DOUBLE_EQ(w1, w2);
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1[i].gx, a2[i].gx);
    EXPECT_EQ(a1[i].gy, a2[i].gy);
  }
}

TEST(Trainer, CustomRewardIsUsed) {
  EnvFixture f(62, 6, 4);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator evaluator(f.context.coarse, f.context.spec);
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  TrainOptions options;
  options.episodes = 3;
  options.update_window = 3;
  options.reward = [](double) { return 42.0; };
  const TrainResult result = train_agent(env, evaluator, agent, options);
  for (const EpisodeRecord& e : result.episodes) {
    EXPECT_DOUBLE_EQ(e.reward, 42.0);
  }
}

// Forwards to another evaluator and counts the wirelength evaluations; when
// `cancel_at` > 0, requests `cancel` on that call.
class CountingEvaluator : public AllocationEvaluator {
 public:
  explicit CountingEvaluator(AllocationEvaluator& inner) : inner_(inner) {}

  double evaluate(const std::vector<grid::CellCoord>& anchors) override {
    if (++calls == cancel_at) cancel.request_cancel();
    return inner_.evaluate(anchors);
  }

  int calls = 0;
  int cancel_at = 0;
  util::CancelToken cancel;

 private:
  AllocationEvaluator& inner_;
};

TEST(Trainer, PreCancelledSkipsCalibration) {
  EnvFixture f(63, 6, 4);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator coarse(f.context.coarse, f.context.spec);
  CountingEvaluator evaluator(coarse);
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  TrainOptions options;
  options.episodes = 3;
  options.update_window = 3;
  options.cancel = util::CancelToken::make();
  options.cancel.request_cancel();
  const TrainResult result = train_agent(env, evaluator, agent, options);
  // The default calibration would have evaluated 50 random episodes.
  EXPECT_EQ(evaluator.calls, 0);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.episodes.empty());
  EXPECT_EQ(result.optimizer_steps, 0);
  EXPECT_EQ(result.best_wirelength, std::numeric_limits<double>::infinity());
}

TEST(Trainer, CancelDuringCalibrationStopsIt) {
  EnvFixture f(63, 6, 4);
  PlacementEnv env(f.context.coarse, f.context.clustering, f.context.spec);
  CoarseEvaluator coarse(f.context.coarse, f.context.spec);
  CountingEvaluator evaluator(coarse);
  AgentConfig config;
  config.grid_dim = 4;
  config.channels = 8;
  config.res_blocks = 1;
  AgentNetwork agent(config);
  TrainOptions options;
  options.episodes = 3;
  options.update_window = 3;
  options.cancel = util::CancelToken::make();
  evaluator.cancel = options.cancel;
  evaluator.cancel_at = 3;
  const TrainResult result = train_agent(env, evaluator, agent, options);
  // The calibration stops at the next episode boundary instead of
  // evaluating all 50 random episodes.
  EXPECT_EQ(evaluator.calls, 3);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.episodes.empty());
  EXPECT_EQ(result.optimizer_steps, 0);
  EXPECT_EQ(result.best_wirelength, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace mp::rl
