// Tests for the shared flow plumbing (place/flow): preprocessing context,
// finalize step, and cross-placer invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "benchgen/generator.hpp"
#include "place/flow.hpp"

namespace mp::place {
namespace {

netlist::Design bench(std::uint64_t seed, int macros = 10, bool hier = false,
                      int preplaced = 0) {
  benchgen::BenchSpec spec;
  spec.movable_macros = macros;
  spec.preplaced_macros = preplaced;
  spec.std_cells = 200;
  spec.nets = 300;
  spec.hierarchy = hier;
  spec.seed = seed;
  return benchgen::generate(spec);
}

TEST(Flow, PrepareBuildsConsistentContext) {
  netlist::Design d = bench(120);
  FlowOptions options;
  options.grid_dim = 8;
  options.initial_gp.max_iterations = 3;
  const FlowContext context = prepare_flow(d, options);

  EXPECT_EQ(context.spec.dim(), 8);
  EXPECT_EQ(context.spec.region().w, d.region().w);
  EXPECT_GT(context.clustering.macro_groups.size(), 0u);
  EXPECT_EQ(context.coarse.macro_group_nodes.size(),
            context.clustering.macro_groups.size());
  // Coarse design nets reference valid nodes only.
  for (const netlist::Net& net : context.coarse.design.nets()) {
    for (const netlist::PinRef& pin : net.pins) {
      EXPECT_GE(pin.node, 0);
      EXPECT_LT(static_cast<std::size_t>(pin.node),
                context.coarse.design.num_nodes());
    }
  }
}

TEST(Flow, PrepareRunsInitialPlacement) {
  netlist::Design d = bench(121);
  // Scramble cells into a corner; prepare_flow must spread them.
  for (netlist::NodeId id : d.std_cells()) d.node(id).position = {0.0, 0.0};
  FlowOptions options;
  options.grid_dim = 8;
  options.initial_gp.max_iterations = 4;
  prepare_flow(d, options);
  geometry::BoundingBox box;
  for (netlist::NodeId id : d.std_cells()) box.add(d.node(id).center());
  EXPECT_GT(box.width(), d.region().w * 0.1);
  EXPECT_GT(box.height(), d.region().h * 0.1);
}

TEST(Flow, FinalizeProducesLegalMeasurablePlacement) {
  netlist::Design d = bench(122);
  FlowOptions options;
  options.grid_dim = 4;
  options.initial_gp.max_iterations = 3;
  options.final_gp.max_iterations = 4;
  FlowContext context = prepare_flow(d, options);
  std::vector<grid::CellCoord> anchors;
  for (std::size_t g = 0; g < context.clustering.macro_groups.size(); ++g) {
    anchors.push_back({static_cast<int>(g) % 4, static_cast<int>(g / 4) % 4});
  }
  const double hpwl = finalize_placement(d, context, anchors, options);
  EXPECT_TRUE(std::isfinite(hpwl));
  EXPECT_GT(hpwl, 0.0);
  EXPECT_NEAR(d.macro_overlap_area(), 0.0, d.region().area() * 1e-9);
  EXPECT_DOUBLE_EQ(hpwl, d.total_hpwl());
}

TEST(Flow, DifferentAnchorsChangeFinalHpwl) {
  netlist::Design d1 = bench(123);
  netlist::Design d2 = bench(123);
  FlowOptions options;
  options.grid_dim = 4;
  options.initial_gp.max_iterations = 3;
  options.final_gp.max_iterations = 4;
  FlowContext c1 = prepare_flow(d1, options);
  FlowContext c2 = prepare_flow(d2, options);
  const std::size_t n = c1.clustering.macro_groups.size();
  std::vector<grid::CellCoord> diagonal, stacked(n, {0, 0});
  for (std::size_t g = 0; g < n; ++g) {
    diagonal.push_back({static_cast<int>(g) % 4, static_cast<int>(g) % 4});
  }
  const double h1 = finalize_placement(d1, c1, diagonal, options);
  const double h2 = finalize_placement(d2, c2, stacked, options);
  EXPECT_NE(h1, h2);
}

TEST(Flow, PlaceCellsKeepsMacrosFixed) {
  netlist::Design d = bench(124, 6);
  std::vector<geometry::Point> before;
  for (netlist::NodeId id : d.movable_macros()) before.push_back(d.node(id).position);
  gp::GlobalPlaceOptions final_gp;
  final_gp.max_iterations = 3;
  const double hpwl = place_cells_and_measure(d, final_gp);
  EXPECT_TRUE(std::isfinite(hpwl));
  std::size_t k = 0;
  for (netlist::NodeId id : d.movable_macros()) {
    EXPECT_EQ(d.node(id).position, before[k]);
    ++k;
  }
}

TEST(Flow, HierarchyDesignsProduceHierarchyAwareGroups) {
  netlist::Design d = bench(125, 12, /*hier=*/true, /*preplaced=*/2);
  FlowOptions options;
  options.grid_dim = 8;
  options.initial_gp.max_iterations = 3;
  const FlowContext context = prepare_flow(d, options);
  // Groups inherit hierarchy prefixes from their members (possibly empty for
  // mixed-module groups, but at least one group should carry a prefix when
  // clustering actually merged same-module macros).
  bool merged_any = false;
  for (const auto& g : context.clustering.macro_groups) {
    if (g.members.size() > 1) merged_any = true;
  }
  // Merging is expected at this density; hierarchy strings must be valid
  // prefixes of their members' paths.
  EXPECT_TRUE(merged_any);
  for (const auto& g : context.clustering.macro_groups) {
    if (g.hierarchy.empty()) continue;
    for (netlist::NodeId m : g.members) {
      EXPECT_EQ(d.node(m).hierarchy.rfind(g.hierarchy, 0), 0u)
          << "group hierarchy is not a prefix of member path";
    }
  }
}

}  // namespace
}  // namespace mp::place
