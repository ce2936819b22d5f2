// Parameterized clustering sweeps: invariants across grid resolutions and
// design shapes.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <type_traits>

#include "benchgen/generator.hpp"
#include "cluster/clustering.hpp"
#include "cluster/coarse.hpp"
#include "gp/global_placer.hpp"

namespace mp::cluster {
namespace {

netlist::Design placed_bench(std::uint64_t seed, int macros, int cells,
                             bool hierarchy) {
  benchgen::BenchSpec spec;
  spec.movable_macros = macros;
  spec.preplaced_macros = hierarchy ? 2 : 0;
  spec.std_cells = cells;
  spec.nets = cells * 3 / 2;
  spec.hierarchy = hierarchy;
  spec.seed = seed;
  netlist::Design d = benchgen::generate(spec);
  gp::GlobalPlaceOptions options;
  options.move_macros = true;
  options.max_iterations = 4;
  gp::global_place(d, options);
  return d;
}

// gtest names each case by printing the raw bytes of its SweepCase, so the
// struct must have no padding: uninitialized padding bytes would change the
// test names from run to run.  Hence a 4-byte enum rather than a bool.
enum class Shape : std::int32_t { kFlat = 0, kHierarchical = 1 };

struct SweepCase {
  int grid_dim;
  int macros;
  int cells;
  Shape shape;
};
static_assert(std::has_unique_object_representations_v<SweepCase>,
              "SweepCase must have no padding bytes");

class ClusterSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ClusterSweep, InvariantsHold) {
  const SweepCase c = GetParam();
  netlist::Design d = placed_bench(
      1000 + static_cast<std::uint64_t>(c.grid_dim * 100 + c.macros),
      c.macros, c.cells, c.shape == Shape::kHierarchical);
  const grid::GridSpec spec(d.region(), c.grid_dim);
  const Clustering clustering = cluster_design(d, spec);

  // 1. Partition: every movable macro in exactly one group.
  std::set<netlist::NodeId> seen;
  for (const Group& g : clustering.macro_groups) {
    EXPECT_FALSE(g.members.empty());
    for (netlist::NodeId m : g.members) {
      EXPECT_TRUE(seen.insert(m).second);
    }
  }
  EXPECT_EQ(seen.size(), d.movable_macros().size());

  // 2. Shapes: every group rectangle fits its members and its area budget.
  for (const Group& g : clustering.macro_groups) {
    EXPECT_GE(g.width * g.height, g.area * 0.999);
    for (netlist::NodeId m : g.members) {
      EXPECT_LE(d.node(m).width, g.width + 1e-9);
      EXPECT_LE(d.node(m).height, g.height + 1e-9);
    }
  }

  // 3. Area ordering (placement priority, Sec. V).
  for (std::size_t i = 1; i < clustering.macro_groups.size(); ++i) {
    EXPECT_GE(clustering.macro_groups[i - 1].area,
              clustering.macro_groups[i].area);
  }

  // 4. Coarse design consistency.
  const CoarseDesign coarse = build_coarse_design(d, clustering);
  EXPECT_EQ(coarse.macro_group_nodes.size(), clustering.macro_groups.size());
  for (std::size_t g = 0; g < clustering.macro_groups.size(); ++g) {
    const netlist::Node& node = coarse.design.node(coarse.macro_group_nodes[g]);
    EXPECT_EQ(node.kind, netlist::NodeKind::kMacro);
    EXPECT_FALSE(node.fixed);
    EXPECT_NEAR(node.width, clustering.macro_groups[g].width, 1e-9);
  }
  // Coarse nets all reference live nodes and >= 2 distinct endpoints.
  for (const netlist::Net& net : coarse.design.nets()) {
    EXPECT_GE(net.pins.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ClusterSweep,
    ::testing::Values(SweepCase{4, 8, 150, Shape::kFlat},
                      SweepCase{8, 16, 250, Shape::kFlat},
                      SweepCase{8, 16, 250, Shape::kHierarchical},
                      SweepCase{16, 30, 400, Shape::kHierarchical},
                      SweepCase{16, 30, 400, Shape::kFlat},
                      SweepCase{2, 6, 100, Shape::kFlat}));

}  // namespace
}  // namespace mp::cluster
