// Tests for quadratic placement: closed-form cases, anchors, bounds,
// offsets, star model, HPWL-improvement property on synthetic designs, and
// a reused QuadraticSystem against one-shot solves.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "benchgen/generator.hpp"
#include "obs/obs.hpp"
#include "qp/quadratic.hpp"

namespace mp::qp {
namespace {

using netlist::Design;
using netlist::Net;
using netlist::Node;
using netlist::NodeKind;

// One movable cell between two fixed pads at (10,10) and (30,20): the
// quadratic optimum is the midpoint of the pin positions.
TEST(Qp, MovableSettlesAtMidpointOfFixedNeighbors) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {10, 10};
  d.add_node(pad);
  pad.name = "p1";
  pad.position = {30, 20};
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  cell.width = 2.0;
  cell.height = 2.0;
  cell.position = {50, 50};
  d.add_node(cell);
  Net n1;
  n1.pins = {{0, 0, 0}, {2, 1.0, 1.0}};  // pad to cell center
  d.add_net(n1);
  Net n2;
  n2.pins = {{1, 0, 0}, {2, 1.0, 1.0}};
  d.add_net(n2);

  solve_quadratic_placement(d, {2});
  EXPECT_NEAR(d.node(2).center().x, 20.0, 1e-6);
  EXPECT_NEAR(d.node(2).center().y, 15.0, 1e-6);
}

TEST(Qp, AnchorPullsTowardTarget) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {0, 0};
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  cell.width = 0.0;
  cell.height = 0.0;
  d.add_node(cell);
  Net n;
  n.pins = {{0, 0, 0}, {1, 0, 0}};
  d.add_net(n);

  // Net weight 1 toward (0,0); anchor weight 1 toward (10,10): center at 5,5.
  solve_quadratic_placement(d, {1}, {{1, {10.0, 10.0}, 1.0}});
  EXPECT_NEAR(d.node(1).center().x, 5.0, 1e-6);
  EXPECT_NEAR(d.node(1).center().y, 5.0, 1e-6);
}

TEST(Qp, StrongAnchorDominates) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {0, 0};
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  d.add_node(cell);
  Net n;
  n.pins = {{0, 0, 0}, {1, 0, 0}};
  d.add_net(n);
  solve_quadratic_placement(d, {1}, {{1, {10.0, 10.0}, 1000.0}});
  EXPECT_NEAR(d.node(1).center().x, 10.0, 0.05);
}

TEST(Qp, BoxBoundClampsResult) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {90, 90};
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  d.add_node(cell);
  Net n;
  n.pins = {{0, 0, 0}, {1, 0, 0}};
  d.add_net(n);
  const BoxBound bound{1, geometry::Rect(0, 0, 20, 20)};
  solve_quadratic_placement(d, {1}, {}, {bound});
  EXPECT_LE(d.node(1).center().x, 20.0 + 1e-9);
  EXPECT_LE(d.node(1).center().y, 20.0 + 1e-9);
}

TEST(Qp, RegionClampKeepsNodeInside) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {200, 200};  // pull is outside the region
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  cell.width = 10.0;
  cell.height = 10.0;
  d.add_node(cell);
  Net n;
  n.pins = {{0, 0, 0}, {1, 5, 5}};
  d.add_net(n);
  solve_quadratic_placement(d, {1});
  EXPECT_TRUE(d.region().contains(d.node(1).rect()));
}

TEST(Qp, PinOffsetsShiftOptimum) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node pad;
  pad.name = "p0";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {50, 50};
  d.add_node(pad);
  Node cell;
  cell.name = "c";
  cell.width = 10.0;
  cell.height = 10.0;
  d.add_node(cell);
  Net n;
  // Pin at the cell's left-bottom corner (offset 0,0 from lower-left =
  // offset -5,-5 from center): optimum puts the *pin* at the pad.
  n.pins = {{0, 0, 0}, {1, 0.0, 0.0}};
  d.add_net(n);
  solve_quadratic_placement(d, {1});
  EXPECT_NEAR(d.node(1).position.x, 50.0, 1e-6);
  EXPECT_NEAR(d.node(1).position.y, 50.0, 1e-6);
}

TEST(Qp, IsolatedNodeGoesToRegionCenter) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  Node cell;
  cell.name = "c";
  cell.position = {3, 3};
  d.add_node(cell);
  solve_quadratic_placement(d, {0});
  EXPECT_NEAR(d.node(0).center().x, 50.0, 1e-3);
  EXPECT_NEAR(d.node(0).center().y, 50.0, 1e-3);
}

TEST(Qp, StarModelHandlesLargeNets) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  // 12 movable cells on one net (degree > clique_max_degree=8) + one pad.
  Node pad;
  pad.name = "p";
  pad.kind = NodeKind::kPad;
  pad.fixed = true;
  pad.position = {50, 80};
  d.add_node(pad);
  Net n;
  n.pins.push_back({0, 0, 0});
  for (int i = 0; i < 12; ++i) {
    Node c;
    c.name = "c" + std::to_string(i);
    c.position = {5.0 * i, 5.0};
    const auto id = d.add_node(c);
    n.pins.push_back({id, 0, 0});
  }
  d.add_net(n);
  std::vector<netlist::NodeId> movable;
  for (int i = 1; i <= 12; ++i) movable.push_back(i);
  const QpResult r = solve_quadratic_placement(d, movable);
  EXPECT_TRUE(r.cg_x.converged);
  // All cells collapse toward the single fixed pin.
  for (int i = 1; i <= 12; ++i) {
    EXPECT_NEAR(d.node(i).center().x, 50.0, 0.5);
    EXPECT_NEAR(d.node(i).center().y, 80.0, 0.5);
  }
}

TEST(Qp, ReducesHpwlOnSyntheticDesign) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 6;
  spec.std_cells = 300;
  spec.nets = 500;
  spec.seed = 5;
  netlist::Design d = benchgen::generate(spec);
  // Scramble cells to the corner to make the initial HPWL bad.
  for (netlist::NodeId id : d.std_cells()) {
    d.node(id).position = {0.0, 0.0};
  }
  const double before = d.total_hpwl();
  solve_quadratic_placement(d, d.std_cells());
  EXPECT_LT(d.total_hpwl(), before);
}

// One system solved again and again, as the global placer does, against a
// one-shot solve of a copy of the design in the same state, bit for bit.
// The design has a star net of movable and fixed pins, a star net of fixed
// pins only, two nets joining the same pair (duplicate triplets) and an
// isolated movable node (the regularization).
TEST(Qp, ReusedSystemEqualsFreshSolves) {
  Design d("d", geometry::Rect(0, 0, 100, 100));
  for (int i = 0; i < 4; ++i) {
    Node pad;
    pad.name = "p" + std::to_string(i);
    pad.kind = NodeKind::kPad;
    pad.fixed = true;
    pad.position = {30.0 * i, i % 2 == 0 ? 0.0 : 100.0};
    d.add_node(pad);
  }
  std::vector<netlist::NodeId> movable;
  for (int i = 0; i < 8; ++i) {
    Node cell;
    cell.name = "c" + std::to_string(i);
    cell.width = 1.0 + i % 3;
    cell.height = 2.0;
    cell.position = {10.0 + 9.0 * i, 40.0 + 3.0 * (i % 4)};
    movable.push_back(d.add_node(cell));
  }
  const auto net = [&](std::vector<netlist::NodeId> nodes) {
    Net n;
    for (netlist::NodeId id : nodes) n.pins.push_back({id, 0.5, 1.0});
    d.add_net(n);
  };
  net({4, 5, 6, 0, 1});  // star: three movable and two fixed pins
  net({0, 1, 2, 3});     // star: fixed pins only
  net({7, 8});           // the same pair twice
  net({7, 8});
  net({5, 7, 2});
  net({6, 8, 9, 3});  // star
  net({9, 10});
  // Node 11 (the last cell) is on no net.
  QpOptions options;
  options.clique_max_degree = 3;

  obs::set_enabled(true);
  obs::Counter& sorts = obs::Registry::global().counter("qp.csr_sorts");
  QuadraticSystem system(d, movable, options);
  const auto anchors_on = [&](std::size_t stride, double weight) {
    std::vector<Anchor> anchors;
    for (std::size_t i = 0; i < movable.size(); i += stride) {
      anchors.push_back({movable[i], {5.0 + 11.0 * i, 90.0 - 7.0 * i}, weight});
    }
    return anchors;
  };
  struct Step {
    std::vector<Anchor> anchors;
    long long sorts;  ///< sorts the system runs: 1 when the keys change
  };
  const double w = 0.02;
  const Step steps[] = {
      {{}, 1},
      {anchors_on(1, w), 1},
      {anchors_on(1, 1.6 * w), 0},
      {anchors_on(1, 2.56 * w), 0},
      {anchors_on(2, 4.0 * w), 1},  // half the nodes: a new key sequence
      {anchors_on(1, 6.5 * w), 1},
  };
  for (std::size_t s = 0; s < std::size(steps); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    Design fresh = d;
    const long long before = sorts.value();
    const QpResult reused = system.solve(steps[s].anchors);
    EXPECT_EQ(sorts.value() - before, steps[s].sorts);
    const QpResult once = solve_quadratic_placement(
        fresh, movable, steps[s].anchors, {}, options);
    EXPECT_EQ(sorts.value() - before, steps[s].sorts + 1);
    EXPECT_EQ(reused.cg_x.iterations, once.cg_x.iterations);
    EXPECT_EQ(reused.cg_y.iterations, once.cg_y.iterations);
    EXPECT_EQ(reused.cg_x.residual, once.cg_x.residual);
    EXPECT_EQ(reused.cg_y.residual, once.cg_y.residual);
    for (netlist::NodeId id : movable) {
      EXPECT_EQ(d.node(id).position.x, fresh.node(id).position.x) << id;
      EXPECT_EQ(d.node(id).position.y, fresh.node(id).position.y) << id;
    }
  }
}

}  // namespace
}  // namespace mp::qp
