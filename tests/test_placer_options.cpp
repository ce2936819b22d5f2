// Tests for MctsRlOptions variants: analytic guidance on/off, leaf-mode
// selection and row-legal cells through the full flow (all driven through
// the unified place::run facade).

#include <gtest/gtest.h>

#include <cmath>

#include "benchgen/generator.hpp"
#include "place/placer.hpp"

namespace mp::place {
namespace {

netlist::Design bench(std::uint64_t seed) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 10;
  spec.std_cells = 200;
  spec.nets = 320;
  spec.seed = seed;
  return benchgen::generate(spec);
}

MctsRlOptions fast_options() {
  MctsRlOptions options;
  options.flow.grid_dim = 4;
  options.flow.initial_gp.max_iterations = 3;
  options.flow.final_gp.max_iterations = 4;
  options.agent.channels = 8;
  options.agent.res_blocks = 1;
  options.train.episodes = 8;
  options.train.update_window = 4;
  options.train.calibration_episodes = 5;
  options.mcts.explorations_per_move = 6;
  return options;
}

PlaceResult run_mcts(netlist::Design& d, const MctsRlOptions& options) {
  PlacerSpec spec;
  spec.preset = Preset::kMcts;
  spec.mcts_rl = options;
  return run(d, spec);
}

TEST(PlacerOptions, PaperFaithfulModeRuns) {
  netlist::Design d = bench(900);
  MctsRlOptions options = fast_options();
  options.analytic_guidance = false;  // pure pi_theta / v_theta search
  options.mcts.leaf_evaluation = mcts::LeafEvaluation::kValueNetwork;
  options.flow.refine_rounds = 0;     // paper-verbatim finalize
  const PlaceResult r = run_mcts(d, options);
  EXPECT_TRUE(std::isfinite(r.hpwl));
  EXPECT_NEAR(d.macro_overlap_area(), 0.0, d.region().area() * 1e-9);
}

TEST(PlacerOptions, GuidanceNotWorseThanPureSearch) {
  netlist::Design d_guided = bench(901);
  netlist::Design d_pure = bench(901);
  MctsRlOptions guided = fast_options();
  guided.mcts.leaf_evaluation = mcts::LeafEvaluation::kPartialPlacement;
  MctsRlOptions pure = guided;
  pure.analytic_guidance = false;
  const PlaceResult r_guided = run_mcts(d_guided, guided);
  const PlaceResult r_pure = run_mcts(d_pure, pure);
  // The analytic seed lines go through best-seen tracking, so the guided
  // coarse objective can only match or beat the pure search.
  EXPECT_LE(r_guided.coarse_wirelength, r_pure.coarse_wirelength * 1.001);
}

}  // namespace
}  // namespace mp::place
