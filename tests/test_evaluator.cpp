// Tests for the coarse allocation evaluator: full vs partial evaluation and
// determinism.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "place/flow.hpp"
#include "rl/coarse_evaluator.hpp"

namespace mp::rl {
namespace {

struct Fixture {
  netlist::Design design;
  place::FlowContext context;

  explicit Fixture(std::uint64_t seed, int macros = 10, int grid_dim = 4) {
    benchgen::BenchSpec spec;
    spec.movable_macros = macros;
    spec.std_cells = 150;
    spec.nets = 250;
    spec.seed = seed;
    design = benchgen::generate(spec);
    place::FlowOptions options;
    options.grid_dim = grid_dim;
    options.initial_gp.max_iterations = 3;
    context = place::prepare_flow(design, options);
  }

  std::vector<grid::CellCoord> diagonal_anchors(std::size_t count) const {
    std::vector<grid::CellCoord> anchors;
    for (std::size_t i = 0; i < count; ++i) {
      const int k = static_cast<int>(i) % context.spec.dim();
      anchors.push_back({k, k});
    }
    return anchors;
  }
};

TEST(Evaluator, PartialWithFullPrefixMatchesFull) {
  Fixture f(210);
  CoarseEvaluator ev(f.context.coarse, f.context.spec);
  const auto anchors =
      f.diagonal_anchors(f.context.clustering.macro_groups.size());
  const double full = ev.evaluate(anchors);
  const double partial = ev.evaluate_partial(anchors);
  // With every group pinned, partial relaxes exactly the cell groups — the
  // same QP the full evaluation solves.
  EXPECT_NEAR(partial, full, full * 1e-6);
}

TEST(Evaluator, PartialIsOptimisticForPrefixes) {
  Fixture f(211);
  CoarseEvaluator ev(f.context.coarse, f.context.spec);
  const std::size_t n = f.context.clustering.macro_groups.size();
  ASSERT_GE(n, 2u);
  const auto anchors = f.diagonal_anchors(n);
  const double full = ev.evaluate(anchors);
  // Relaxing a suffix of the groups can only reduce the quadratic optimum,
  // which in practice lowers the HPWL proxy too (generous tolerance: the
  // measured quantity is HPWL, not the quadratic objective itself).
  std::vector<grid::CellCoord> prefix(anchors.begin(),
                                      anchors.begin() + static_cast<long>(n / 2));
  const double partial = ev.evaluate_partial(prefix);
  EXPECT_LT(partial, full * 1.1);
}

TEST(Evaluator, EmptyPrefixGivesFullRelaxation) {
  Fixture f(212);
  CoarseEvaluator ev(f.context.coarse, f.context.spec);
  const double relaxed = ev.evaluate_partial({});
  const double pinned =
      ev.evaluate(f.diagonal_anchors(f.context.clustering.macro_groups.size()));
  EXPECT_GT(relaxed, 0.0);
  EXPECT_LT(relaxed, pinned * 1.1);
}

TEST(Evaluator, EvaluationCounterCountsBothKinds) {
  Fixture f(215);
  CoarseEvaluator ev(f.context.coarse, f.context.spec);
  const auto anchors =
      f.diagonal_anchors(f.context.clustering.macro_groups.size());
  ev.evaluate(anchors);
  ev.evaluate_partial({});
  EXPECT_EQ(ev.evaluations(), 2);
}

TEST(Geometry, FitIntervalContainsExactly) {
  // The 1-ulp regression this helper exists for: (hi - size) + size > hi.
  const double hi = 261.24019824979302;
  const double size = 33.331906346321068;
  const double pos = geometry::fit_interval(hi - size, size, 0.0, hi);
  EXPECT_LE(pos + size, hi);
  EXPECT_GE(pos, 0.0);
  // Normal case: desired inside, unchanged.
  EXPECT_DOUBLE_EQ(geometry::fit_interval(5.0, 2.0, 0.0, 10.0), 5.0);
  // Too large: clamps to lo.
  EXPECT_DOUBLE_EQ(geometry::fit_interval(3.0, 20.0, 1.0, 10.0), 1.0);
}

}  // namespace
}  // namespace mp::rl
