// Tests for sequence pairs, LP legalization, shove fallback and the
// three-step group legalizer.

#include <gtest/gtest.h>

#include "benchgen/generator.hpp"
#include "cluster/clustering.hpp"
#include "cluster/coarse.hpp"
#include "gp/global_placer.hpp"
#include "legal/legalizer.hpp"
#include "legal/lp_legalizer.hpp"
#include "legal/sequence_pair.hpp"
#include "legal/shove.hpp"
#include "util/rng.hpp"

namespace mp::legal {
namespace {

TEST(SequencePair, ValidPermutations) {
  const std::vector<geometry::Rect> rects{
      {0, 0, 2, 2}, {5, 1, 2, 2}, {2, 6, 2, 2}};
  const SequencePair sp = sequence_pair_from_placement(rects);
  EXPECT_TRUE(is_valid_sequence_pair(sp));
  EXPECT_EQ(sp.size(), 3u);
}

TEST(SequencePair, LeftOfRelationRecovered) {
  // a strictly left of b at the same height.
  const std::vector<geometry::Rect> rects{{0, 0, 2, 2}, {10, 0, 2, 2}};
  const SequencePair sp = sequence_pair_from_placement(rects);
  const auto constraints = extract_constraints(sp);
  ASSERT_EQ(constraints.size(), 1u);
  EXPECT_EQ(constraints[0].relation, PairRelation::kLeftOf);
  EXPECT_EQ(constraints[0].i, 0);
  EXPECT_EQ(constraints[0].j, 1);
}

TEST(SequencePair, BelowRelationRecovered) {
  const std::vector<geometry::Rect> rects{{0, 0, 2, 2}, {0, 10, 2, 2}};
  const SequencePair sp = sequence_pair_from_placement(rects);
  const auto constraints = extract_constraints(sp);
  ASSERT_EQ(constraints.size(), 1u);
  EXPECT_EQ(constraints[0].relation, PairRelation::kBelow);
  EXPECT_EQ(constraints[0].i, 0);
  EXPECT_EQ(constraints[0].j, 1);
}

TEST(SequencePair, ExactlyOneConstraintPerPair) {
  util::Rng rng(5);
  std::vector<geometry::Rect> rects;
  for (int i = 0; i < 12; ++i) {
    rects.emplace_back(rng.uniform(0, 50), rng.uniform(0, 50),
                       rng.uniform(1, 5), rng.uniform(1, 5));
  }
  const SequencePair sp = sequence_pair_from_placement(rects);
  const auto constraints = extract_constraints(sp);
  EXPECT_EQ(constraints.size(), 12u * 11u / 2u);
}

TEST(SequencePair, PackingIsOverlapFree) {
  util::Rng rng(6);
  std::vector<geometry::Rect> rects;
  std::vector<double> widths, heights;
  for (int i = 0; i < 10; ++i) {
    const double w = rng.uniform(1, 6), h = rng.uniform(1, 6);
    // Deliberately overlapping initial placement.
    rects.emplace_back(rng.uniform(0, 8), rng.uniform(0, 8), w, h);
    widths.push_back(w);
    heights.push_back(h);
  }
  const SequencePair sp = sequence_pair_from_placement(rects);
  std::vector<geometry::Point> pos;
  pack_longest_path(sp, widths, heights, {0.0, 0.0}, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const geometry::Rect a(pos[i].x, pos[i].y, widths[i], heights[i]);
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      const geometry::Rect b(pos[j].x, pos[j].y, widths[j], heights[j]);
      EXPECT_FALSE(a.overlaps(b)) << "pack overlap between " << i << "," << j;
    }
  }
}

netlist::Design overlapping_macro_design(int n, util::Rng& rng,
                                         double region_side = 100.0) {
  netlist::Design d("d", geometry::Rect(0, 0, region_side, region_side));
  for (int i = 0; i < n; ++i) {
    netlist::Node m;
    m.name = "m" + std::to_string(i);
    m.kind = netlist::NodeKind::kMacro;
    m.width = rng.uniform(8, 16);
    m.height = rng.uniform(8, 16);
    // Cluster them around the center so they overlap.
    m.position = {region_side / 2 + rng.uniform(-10, 10),
                  region_side / 2 + rng.uniform(-10, 10)};
    d.add_node(m);
  }
  // A couple of pads + nets so the LP objective has fixed terms.
  for (int p = 0; p < 4; ++p) {
    netlist::Node pad;
    pad.name = "p" + std::to_string(p);
    pad.kind = netlist::NodeKind::kPad;
    pad.fixed = true;
    pad.position = {(p % 2) * region_side, (p / 2) * region_side};
    const auto pid = d.add_node(pad);
    netlist::Net net;
    net.pins = {{pid, 0, 0}, {p % n, 2.0, 2.0}};
    d.add_net(net);
  }
  return d;
}

TEST(LpLegalize, RemovesOverlapsWithinComponent) {
  util::Rng rng(7);
  netlist::Design d = overlapping_macro_design(6, rng);
  ASSERT_GT(d.macro_overlap_area(), 0.0);
  const LpLegalizeResult r = lp_legalize_component(
      d, d.movable_macros(), d.region());
  EXPECT_TRUE(r.lp_solved_x);
  EXPECT_TRUE(r.lp_solved_y);
  EXPECT_NEAR(d.macro_overlap_area(), 0.0, 1e-6);
}

TEST(LpLegalize, KeepsMacrosInsideRegion) {
  util::Rng rng(8);
  netlist::Design d = overlapping_macro_design(8, rng);
  lp_legalize_component(d, d.movable_macros(), d.region());
  for (netlist::NodeId id : d.movable_macros()) {
    EXPECT_TRUE(d.region().contains(d.node(id).rect()));
  }
}

TEST(LpLegalize, RespectsPinnedMembers) {
  util::Rng rng(9);
  netlist::Design d = overlapping_macro_design(5, rng);
  // Pin macro 0 by passing a zero-slack allowed box.
  const geometry::Rect pin_box = d.node(0).rect();
  std::vector<geometry::Rect> allowed(5, d.region());
  allowed[0] = pin_box;
  lp_legalize_component(d, d.movable_macros(), d.region(), allowed);
  EXPECT_NEAR(d.node(0).position.x, pin_box.x, 1e-6);
  EXPECT_NEAR(d.node(0).position.y, pin_box.y, 1e-6);
}

TEST(Shove, ProducesOverlapFreeResult) {
  util::Rng rng(10);
  netlist::Design d = overlapping_macro_design(10, rng, 200.0);
  const ShoveResult r = shove_legalize(d, d.movable_macros(), d.region());
  EXPECT_EQ(r.unplaced, 0);
  EXPECT_NEAR(d.macro_overlap_area(), 0.0, 1e-9);
}

TEST(Shove, AvoidsObstacles) {
  netlist::Design d("d", geometry::Rect(0, 0, 50, 50));
  netlist::Node m;
  m.name = "m";
  m.kind = netlist::NodeKind::kMacro;
  m.width = 10.0;
  m.height = 10.0;
  m.position = {20.0, 20.0};
  d.add_node(m);
  const geometry::Rect obstacle(15.0, 15.0, 20.0, 20.0);  // covers desired spot
  shove_legalize(d, d.movable_macros(), d.region(), {obstacle});
  EXPECT_FALSE(d.node(0).rect().overlaps(obstacle));
  EXPECT_TRUE(d.region().contains(d.node(0).rect()));
}

TEST(LegalizeFlat, FullDesignBecomesLegal) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 12;
  spec.preplaced_macros = 2;
  spec.std_cells = 150;
  spec.nets = 250;
  spec.hierarchy = true;
  spec.seed = 44;
  netlist::Design d = benchgen::generate(spec);
  // Crush all movable macros to the center.
  for (netlist::NodeId id : d.movable_macros()) {
    d.node(id).position = {d.region().center().x, d.region().center().y};
  }
  const MacroLegalizeResult r = legalize_flat(d);
  EXPECT_GT(r.overlap_before, 0.0);
  EXPECT_NEAR(r.overlap_after, 0.0, d.region().area() * 1e-9);
}

TEST(LegalizeFlat, FitsNonOverlappingMacroBackIntoRegion) {
  // Past the right edge and overlapping nothing: no overlap component and
  // no shove would move it, so legalize_flat must fit it back explicitly.
  netlist::Design d("d", geometry::Rect(0, 0, 100, 100));
  netlist::Node inside;
  inside.name = "inside";
  inside.kind = netlist::NodeKind::kMacro;
  inside.width = 10;
  inside.height = 10;
  inside.position = {10, 10};
  d.add_node(inside);
  netlist::Node outside = inside;
  outside.name = "outside";
  outside.position = {95, 40};
  d.add_node(outside);
  legalize_flat(d);
  EXPECT_TRUE(d.all_inside_region());
  EXPECT_EQ(d.node(0).position.x, 10.0);  // in-region macros stay put
  EXPECT_EQ(d.node(0).position.y, 10.0);
  EXPECT_EQ(d.node(1).position.y, 40.0);
  EXPECT_EQ(d.macro_overlap_area(), 0.0);
}

TEST(LegalizeGroups, EndToEndOverlapFree) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 10;
  spec.std_cells = 200;
  spec.nets = 300;
  spec.seed = 45;
  netlist::Design d = benchgen::generate(spec);
  gp::GlobalPlaceOptions gpo;
  gpo.move_macros = true;
  gpo.max_iterations = 4;
  gp::global_place(d, gpo);

  const grid::GridSpec grid_spec(d.region(), 4);
  const cluster::Clustering clustering = cluster::cluster_design(d, grid_spec);
  cluster::CoarseDesign coarse = cluster::build_coarse_design(d, clustering);

  // Allocate groups round-robin over the diagonal.
  std::vector<grid::CellCoord> anchors;
  for (std::size_t g = 0; g < clustering.macro_groups.size(); ++g) {
    const int k = static_cast<int>(g) % grid_spec.dim();
    anchors.push_back({k, k});
  }
  const MacroLegalizeResult r =
      legalize_groups(d, coarse, clustering, grid_spec, anchors);
  EXPECT_NEAR(r.overlap_after, 0.0, d.region().area() * 1e-9);
  for (netlist::NodeId id : d.movable_macros()) {
    EXPECT_TRUE(d.region().contains(d.node(id).rect()))
        << "macro outside region after legalization";
  }
}

// Property sweep: flat legalization ends overlap-free for varying densities.
class LegalizeDensityProperty : public ::testing::TestWithParam<int> {};

TEST_P(LegalizeDensityProperty, OverlapFreeAfterLegalize) {
  const int macros = GetParam();
  benchgen::BenchSpec spec;
  spec.movable_macros = macros;
  spec.std_cells = 100;
  spec.nets = 150;
  spec.seed = 100 + static_cast<std::uint64_t>(macros);
  netlist::Design d = benchgen::generate(spec);
  for (netlist::NodeId id : d.movable_macros()) {
    d.node(id).position = {d.region().w * 0.4, d.region().h * 0.4};
  }
  legalize_flat(d);
  EXPECT_NEAR(d.macro_overlap_area(), 0.0, d.region().area() * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(MacroCounts, LegalizeDensityProperty,
                         ::testing::Values(2, 5, 9, 16, 25));

}  // namespace
}  // namespace mp::legal
