#pragma once
// Quadratic placement: minimizes the clique/star quadratic wirelength proxy
// over a chosen set of movable nodes, everything else (pads, preplaced
// macros, already-fixed groups) acting as fixed anchors.  This is the QP
// used by
//   * the initial placement that seeds clustering (Sec. II-A, via [23]),
//   * legalization steps 1-2 (cell groups after macro groups are pinned to
//     grid centers, then macro decomposition inside grids, Sec. II-B),
//   * the global placer's wirelength phase (gp/).
//
// x and y are independent and solved as two SPD systems by preconditioned CG.

#include <optional>
#include <vector>

#include "linalg/cg.hpp"
#include "netlist/design.hpp"

namespace mp::qp {

/// Extra spring pulling one movable node toward a point (spreading anchors,
/// "stay near your grid" forces).
struct Anchor {
  netlist::NodeId node = netlist::kInvalidNode;
  geometry::Point target;
  double weight = 1.0;
};

/// Axis-aligned box constraining a node's center; enforced by projection
/// after the unconstrained solve (adequate for the per-grid decomposition QP
/// where boxes are large relative to movements).
struct BoxBound {
  netlist::NodeId node = netlist::kInvalidNode;
  geometry::Rect box;  ///< allowed region for the node center
};

struct QpOptions {
  /// Nets with more pins than this use a star model instead of a clique.
  int clique_max_degree = 8;
  /// Nets with more pins than this are ignored entirely (global nets).
  int max_net_degree = 512;
  linalg::CgOptions cg;
};

struct QpResult {
  linalg::CgResult cg_x;
  linalg::CgResult cg_y;
};

/// Solves the quadratic program and writes the resulting positions into
/// `design` (moving exactly the nodes in `movable`), clamped so each moved
/// node's rectangle stays inside the placement region.  Nodes not in
/// `movable` keep their current positions and act as fixed terminals.
/// `anchors`/`bounds` may reference only movable nodes.
QpResult solve_quadratic_placement(netlist::Design& design,
                                   const std::vector<netlist::NodeId>& movable,
                                   const std::vector<Anchor>& anchors = {},
                                   const std::vector<BoxBound>& bounds = {},
                                   const QpOptions& options = {});

}  // namespace mp::qp
