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
// x and y are independent, and the clique and star weights do not depend on
// the axis, so one SPD matrix serves both: a solve compiles one CSR matrix
// and runs preconditioned CG on it twice, once per right-hand side.
//
// A QuadraticSystem assembles the net terms of one design and movable set
// once and can then be solved many times with different anchors (the global
// placer's spreading passes).  Between its solves only the movable nodes may
// move: the fixed pins' positions are part of the assembled right-hand
// sides.  Solves that produce the same triplet key sequence (the same
// anchored nodes in the same order) reuse one sort order, so the matrix is
// compiled without sorting again and its bits equal a fresh compile's.

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
/// `anchors`/`bounds` may reference only movable nodes.  One-shot: builds a
/// QuadraticSystem and solves it once, keeping no sort order.
QpResult solve_quadratic_placement(netlist::Design& design,
                                   const std::vector<netlist::NodeId>& movable,
                                   const std::vector<Anchor>& anchors = {},
                                   const std::vector<BoxBound>& bounds = {},
                                   const QpOptions& options = {});

/// The quadratic program of one design and movable set, for repeated solves
/// with different anchors and bounds.  The constructor assembles the net
/// terms: one triplet list and the x and y right-hand sides.  Each solve
/// appends its anchor springs and the regularization of isolated variables,
/// compiles one CSR matrix (reusing the previous solve's sort order when the
/// key sequence is unchanged), solves both axes on it, and writes the
/// positions back as solve_quadratic_placement does.
///
/// The system refers to `design`, which must outlive it.  Between solves,
/// only the nodes in `movable` may move; fixed pins, node sizes, nets and
/// the region must stay as they were at construction.
class QuadraticSystem {
 public:
  QuadraticSystem(netlist::Design& design, std::vector<netlist::NodeId> movable,
                  const QpOptions& options = {});

  /// Solves with `anchors` added to the net terms and writes the movable
  /// nodes' positions into the design (bounded by `bounds`).  Anchors and
  /// bounds may reference only movable nodes.
  QpResult solve(const std::vector<Anchor>& anchors = {},
                 const std::vector<BoxBound>& bounds = {});

 private:
  friend QpResult solve_quadratic_placement(netlist::Design&,
                                            const std::vector<netlist::NodeId>&,
                                            const std::vector<Anchor>&,
                                            const std::vector<BoxBound>&,
                                            const QpOptions&);

  /// The solve; `reuse` is the sort-order slot, null for a one-shot solve.
  QpResult solve_with(const std::vector<Anchor>& anchors,
                      const std::vector<BoxBound>& bounds,
                      linalg::TripletOrder* reuse);

  netlist::Design& design_;
  std::vector<netlist::NodeId> movable_;
  QpOptions options_;
  std::vector<int> var_of_node_;  ///< variable of each node, -1 when fixed
  std::size_t num_vars_ = 0;      ///< movable nodes, then one per star net
  /// Net terms; a solve appends its springs and truncates them off again.
  linalg::TripletBuilder triplets_{0};
  std::size_t net_triplets_ = 0;
  linalg::Vec rhs_x_, rhs_y_;  ///< net terms of the right-hand sides
  linalg::Vec net_diagonal_;   ///< per variable, the sum of its net stamps
  linalg::TripletOrder order_;
};

}  // namespace mp::qp
