#include "legal/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "legal/shove.hpp"
#include "util/log.hpp"

namespace mp::legal {

using netlist::Design;
using netlist::NodeId;

namespace {

// Union-find over macro indices for overlap components.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  }
  void unite(int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); }
};

// Resolves overlap components among `movable` macros (fixed macros join a
// component as pinned members).  Returns the number of components processed.
int resolve_components(Design& design, const std::vector<NodeId>& movable,
                       const geometry::Rect& region,
                       const std::vector<geometry::Rect>& movable_allowed,
                       const MacroLegalizeOptions& options) {
  // All macros participate in overlap detection.
  std::vector<NodeId> all = movable;
  std::vector<bool> pinned(movable.size(), false);
  for (NodeId id : design.macros()) {
    if (design.node(id).fixed) {
      all.push_back(id);
      pinned.push_back(true);
    }
  }
  const std::size_t n = all.size();
  UnionFind uf(n);
  bool any_overlap = false;
  for (std::size_t i = 0; i < n; ++i) {
    const geometry::Rect ri = design.node(all[i]).rect();
    for (std::size_t j = i + 1; j < n; ++j) {
      if (ri.overlaps(design.node(all[j]).rect())) {
        uf.unite(static_cast<int>(i), static_cast<int>(j));
        any_overlap = true;
      }
    }
  }
  if (!any_overlap) return 0;

  // Gather components with at least one movable member and size >= 2.
  std::vector<std::vector<std::size_t>> components(n);
  for (std::size_t i = 0; i < n; ++i) {
    components[static_cast<std::size_t>(uf.find(static_cast<int>(i)))].push_back(i);
  }
  int processed = 0;
  for (const auto& comp : components) {
    if (comp.size() < 2) continue;
    bool has_movable = false;
    for (std::size_t i : comp) has_movable |= !pinned[i];
    if (!has_movable) continue;

    std::vector<NodeId> ids;
    std::vector<geometry::Rect> allowed;
    geometry::BoundingBox box;
    for (std::size_t i : comp) {
      ids.push_back(all[i]);
      const geometry::Rect rect = design.node(all[i]).rect();
      box.add({rect.left(), rect.bottom()});
      box.add({rect.right(), rect.top()});
      if (pinned[i]) {
        allowed.push_back(rect);  // zero-slack box pins the macro
      } else if (i < movable_allowed.size() && !movable_allowed.empty()) {
        allowed.push_back(movable_allowed[i]);
      } else {
        allowed.push_back(region);
      }
    }
    // Component working region: the joint bounding box inflated by half the
    // component area, clipped to the chip.
    const double inflate =
        0.5 * std::sqrt(std::max(1e-12, box.width() * box.height()));
    geometry::Rect comp_region = geometry::Rect::from_corners(
        std::max(region.left(), box.min_x() - inflate),
        std::max(region.bottom(), box.min_y() - inflate),
        std::min(region.right(), box.max_x() + inflate),
        std::min(region.top(), box.max_y() + inflate));
    if (comp_region.w <= 0.0 || comp_region.h <= 0.0) comp_region = region;
    // Remember pinned (fixed) member positions: the LP holds them with
    // zero-slack bounds, but simplex arithmetic can drift them by ~1e-9.
    std::vector<std::pair<NodeId, geometry::Point>> pinned_positions;
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (pinned[comp[k]]) {
        pinned_positions.emplace_back(ids[k], design.node(ids[k]).position);
      }
    }
    lp_legalize_component(design, ids, comp_region, allowed, options.lp);
    for (const auto& [id, pos] : pinned_positions) design.node(id).position = pos;
    ++processed;
  }
  return processed;
}

void final_shove_if_needed(Design& design, const std::vector<NodeId>& movable,
                           const geometry::Rect& region,
                           MacroLegalizeResult& result,
                           const MacroLegalizeOptions& options) {
  (void)options;
  result.overlap_after = design.macro_overlap_area();
  const double area_scale = std::max(1.0, region.area());
  if (result.overlap_after / area_scale > 1e-9) {
    std::vector<geometry::Rect> obstacles;
    for (NodeId id : design.macros()) {
      if (design.node(id).fixed) obstacles.push_back(design.node(id).rect());
    }
    shove_legalize(design, movable, region, obstacles);
    result.used_shove = true;
    result.overlap_after = design.macro_overlap_area();
  }
}

}  // namespace

MacroLegalizeResult legalize_groups(Design& original,
                                    cluster::CoarseDesign& coarse,
                                    const cluster::Clustering& clustering,
                                    const grid::GridSpec& grid,
                                    const std::vector<grid::CellCoord>& group_anchors,
                                    const MacroLegalizeOptions& options) {
  MacroLegalizeResult result;
  const geometry::Rect region = original.region();

  // --- Step 0: pin macro groups at the centers of their allocated cells. ---
  std::vector<geometry::Rect> group_region(clustering.macro_groups.size());
  for (std::size_t g = 0; g < clustering.macro_groups.size(); ++g) {
    const cluster::Group& group = clustering.macro_groups[g];
    netlist::Node& node = coarse.design.node(coarse.macro_group_nodes[g]);
    const grid::CellCoord fp = grid.footprint_cells(group.width, group.height);
    const geometry::Point origin = grid.cell_origin(group_anchors[g]);
    const geometry::Rect cells(origin.x, origin.y, fp.gx * grid.cell_width(),
                               fp.gy * grid.cell_height());
    node.position = {cells.center().x - node.width / 2.0,
                     cells.center().y - node.height / 2.0};
    group_region[g] = cells;
  }

  // --- Step 1: QP over cell groups with macro groups fixed. ---
  qp::solve_quadratic_placement(coarse.design, coarse.cell_group_nodes, {}, {},
                                options.qp);

  // --- Step 2: decompose groups; QP over original macros with cells fixed at
  // their group centers, each macro box-bounded to its group's cells. ---
  for (std::size_t i = 0; i < original.num_nodes(); ++i) {
    const int cg = clustering.cell_group_of[i];
    if (cg < 0) continue;
    const netlist::Node& group_node =
        coarse.design.node(coarse.cell_group_nodes[static_cast<std::size_t>(cg)]);
    netlist::Node& cell = original.node(static_cast<NodeId>(i));
    const geometry::Point c = group_node.center();
    cell.position = {c.x - cell.width / 2.0, c.y - cell.height / 2.0};
  }
  // Seed macro positions near their group region centers before the QP (the
  // QP is convex, but the box projection benefits from an interior start).
  std::vector<NodeId> movable;
  std::vector<geometry::Rect> movable_allowed;
  std::vector<qp::BoxBound> bounds;
  for (std::size_t i = 0; i < original.num_nodes(); ++i) {
    const int mg = clustering.macro_group_of[i];
    if (mg < 0) continue;
    const NodeId id = static_cast<NodeId>(i);
    netlist::Node& macro = original.node(id);
    const geometry::Rect& box = group_region[static_cast<std::size_t>(mg)];
    movable.push_back(id);
    movable_allowed.push_back(box);
    // Center box for the macro center: shrink by half the macro size.
    geometry::Rect center_box = geometry::Rect::from_corners(
        box.left() + macro.width / 2.0,
        box.bottom() + macro.height / 2.0,
        std::max(box.left() + macro.width / 2.0, box.right() - macro.width / 2.0),
        std::max(box.bottom() + macro.height / 2.0, box.top() - macro.height / 2.0));
    bounds.push_back({id, center_box});
  }
  qp::solve_quadratic_placement(original, movable, {}, bounds, options.qp);
  result.overlap_before = original.macro_overlap_area();

  // --- Step 3: sequence-pair + LP overlap removal, per component. ---
  for (int round = 0; round < options.component_rounds; ++round) {
    const int processed =
        resolve_components(original, movable, region, movable_allowed, options);
    result.components += processed;
    if (processed == 0) break;
  }

  final_shove_if_needed(original, movable, region, result, options);
  // Stage-boundary validation: the pipeline's contract is a legal (overlap-
  // free, in-region) macro placement; the shove pass is the last resort that
  // guarantees it, so a violation here is a real legalizer bug.
  check::validate_placement_legal(original, "legal.legalize_groups");
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(result.overlap_after, "legalize_groups overlap_after");
    MP_CHECK_GE(result.overlap_before, 0.0, "legalize_groups overlap_before");
  }
  util::log_debug() << "legalize_groups: overlap " << result.overlap_before
                    << " -> " << result.overlap_after << " ("
                    << result.components << " components, shove="
                    << result.used_shove << ")";
  return result;
}

MacroLegalizeResult legalize_flat(Design& design,
                                  const MacroLegalizeOptions& options) {
  MacroLegalizeResult result;
  const geometry::Rect region = design.region();
  const std::vector<NodeId> movable = design.movable_macros();
  // A macro past the boundary that overlaps nothing (e.g. a translated ECO
  // group) is in no component and never triggers the shove, so fit it back
  // into the region first.  In-region macros are not touched.
  for (NodeId id : movable) {
    netlist::Node& node = design.node(id);
    if (region.contains(node.rect())) continue;
    node.position.x = geometry::fit_interval(node.position.x, node.width,
                                             region.left(), region.right());
    node.position.y = geometry::fit_interval(node.position.y, node.height,
                                             region.bottom(), region.top());
  }
  result.overlap_before = design.macro_overlap_area();
  for (int round = 0; round < options.component_rounds; ++round) {
    const int processed = resolve_components(design, movable, region, {}, options);
    result.components += processed;
    if (processed == 0) break;
  }
  final_shove_if_needed(design, movable, region, result, options);
  check::validate_placement_legal(design, "legal.legalize_flat");
  return result;
}

}  // namespace mp::legal
