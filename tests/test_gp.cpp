// Tests for the analytical global placer: density bookkeeping and the
// QP + spreading loop.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "gp/density.hpp"
#include "gp/global_placer.hpp"
#include "obs/obs.hpp"

namespace mp::gp {
namespace {

TEST(DensityGrid, CapacityReducedByFixedArea) {
  DensityGrid grid(geometry::Rect(0, 0, 10, 10), 2, 1.0);
  EXPECT_DOUBLE_EQ(grid.capacity(0, 0), 25.0);
  grid.add_fixed(geometry::Rect(0, 0, 5, 5));  // covers bin (0,0) fully
  EXPECT_DOUBLE_EQ(grid.capacity(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grid.capacity(1, 1), 25.0);
}

TEST(DensityGrid, MovableUsageSplitAcrossBins) {
  DensityGrid grid(geometry::Rect(0, 0, 10, 10), 2, 1.0);
  grid.add_movable(geometry::Rect(4, 4, 2, 2));  // straddles all 4 bins
  EXPECT_DOUBLE_EQ(grid.usage(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(grid.usage(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(grid.usage(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(grid.usage(1, 1), 1.0);
}

TEST(DensityGrid, OverflowRatio) {
  DensityGrid grid(geometry::Rect(0, 0, 10, 10), 2, 1.0);
  grid.add_fixed(geometry::Rect(0, 0, 5, 5));
  grid.add_movable(geometry::Rect(1, 1, 2, 2));  // 4 units into a 0-cap bin
  EXPECT_NEAR(grid.overflow_ratio(), 1.0, 1e-9);  // everything overflows
  grid.clear_movable();
  EXPECT_DOUBLE_EQ(grid.overflow_ratio(), 0.0);
}

TEST(GlobalPlace, ReducesOverflowOnCongestedStart) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 4;
  spec.std_cells = 600;
  spec.nets = 900;
  spec.seed = 21;
  netlist::Design d = benchgen::generate(spec);
  // Pile all cells into one corner.
  for (netlist::NodeId id : d.std_cells()) d.node(id).position = {1.0, 1.0};

  GlobalPlaceOptions options;
  options.move_macros = false;
  options.max_iterations = 10;
  const GlobalPlaceResult r = global_place(d, options);
  EXPECT_LT(r.overflow_ratio, 0.5);
  EXPECT_GT(r.hpwl, 0.0);
}

TEST(GlobalPlace, KeepsNodesInRegion) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 5;
  spec.std_cells = 300;
  spec.nets = 400;
  spec.seed = 22;
  netlist::Design d = benchgen::generate(spec);
  GlobalPlaceOptions options;
  options.move_macros = true;
  global_place(d, options);
  for (netlist::NodeId id : d.std_cells()) {
    EXPECT_TRUE(d.region().contains(d.node(id).rect()))
        << "cell " << id << " escaped";
  }
  for (netlist::NodeId id : d.movable_macros()) {
    EXPECT_TRUE(d.region().contains(d.node(id).rect()))
        << "macro " << id << " escaped";
  }
}

TEST(GlobalPlace, FixedMacrosNeverMove) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 3;
  spec.preplaced_macros = 3;
  spec.std_cells = 200;
  spec.nets = 300;
  spec.hierarchy = true;
  spec.seed = 23;
  netlist::Design d = benchgen::generate(spec);
  std::vector<geometry::Point> before;
  for (netlist::NodeId id : d.macros()) {
    if (d.node(id).fixed) before.push_back(d.node(id).position);
  }
  GlobalPlaceOptions options;
  options.move_macros = true;
  global_place(d, options);
  std::size_t k = 0;
  for (netlist::NodeId id : d.macros()) {
    if (!d.node(id).fixed) continue;
    EXPECT_EQ(d.node(id).position, before[k]) << "fixed macro moved";
    ++k;
  }
}

TEST(GlobalPlace, CellModeLeavesMacrosAlone) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 4;
  spec.std_cells = 150;
  spec.nets = 200;
  spec.seed = 24;
  netlist::Design d = benchgen::generate(spec);
  std::vector<geometry::Point> before;
  for (netlist::NodeId id : d.movable_macros()) before.push_back(d.node(id).position);
  GlobalPlaceOptions options;
  options.move_macros = false;
  global_place(d, options);
  std::size_t k = 0;
  for (netlist::NodeId id : d.movable_macros()) {
    EXPECT_EQ(d.node(id).position, before[k]);
    ++k;
  }
}

TEST(GlobalPlace, EmptyMovableSetIsNoop) {
  netlist::Design d("d", geometry::Rect(0, 0, 10, 10));
  netlist::Node pad;
  pad.name = "p";
  pad.kind = netlist::NodeKind::kPad;
  pad.fixed = true;
  d.add_node(pad);
  const GlobalPlaceResult r = global_place(d);
  EXPECT_DOUBLE_EQ(r.hpwl, 0.0);
}

// Spreading should beat the unconstrained QP on density while keeping HPWL
// in the same ballpark (within a generous factor).
TEST(GlobalPlace, SpreadingTradesLimitedWirelength) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 2;
  spec.std_cells = 500;
  spec.nets = 700;
  spec.seed = 25;
  netlist::Design d = benchgen::generate(spec);

  netlist::Design d_qp = d;
  qp::solve_quadratic_placement(d_qp, d_qp.std_cells());
  const double hpwl_qp = d_qp.total_hpwl();

  GlobalPlaceOptions options;
  options.move_macros = false;
  const GlobalPlaceResult r = global_place(d, options);
  EXPECT_LT(r.hpwl, hpwl_qp * 5.0);
  EXPECT_GE(r.hpwl, hpwl_qp * 0.5);
}

// The anchored solves of one call share one key sequence, so a call sorts
// its triplets twice (the unanchored solve and the first anchored one)
// however many spreading passes it runs; a one-shot solve sorts once.
TEST(GlobalPlace, SortsTripletsAtMostTwicePerCall) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 2;
  spec.std_cells = 500;
  spec.nets = 700;
  spec.seed = 25;
  netlist::Design d = benchgen::generate(spec);
  obs::set_enabled(true);
  obs::Counter& solves = obs::Registry::global().counter("qp.solves");
  obs::Counter& sorts = obs::Registry::global().counter("qp.csr_sorts");

  const long long solves_before = solves.value();
  long long sorts_before = sorts.value();
  GlobalPlaceOptions options;
  options.overflow_target = 0.0;  // run every spreading pass
  global_place(d, options);
  EXPECT_EQ(solves.value() - solves_before, options.max_iterations + 1);
  EXPECT_EQ(sorts.value() - sorts_before, 2);

  sorts_before = sorts.value();
  qp::solve_quadratic_placement(d, d.std_cells());
  EXPECT_EQ(sorts.value() - sorts_before, 1);
}

}  // namespace
}  // namespace mp::gp
