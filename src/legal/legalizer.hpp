#pragma once
// Top-level macro legalization (Sec. II-B): after RL/MCTS allocates macro
// groups to grid cells,
//   step 1  pins each macro group at the center of its allocated cells and
//           determines cell-group locations by QP on the coarse netlist,
//   step 2  decomposes the groups: member macros get relative locations by QP
//           on the original netlist (cell groups fixed), box-bounded to their
//           group's allocated cells,
//   step 3  removes the remaining overlaps per overlap-component with the
//           sequence-pair + LP formulation (Eq. 3), fixed macros acting as
//           pinned members; a greedy shove pass guarantees a legal result.

#include <vector>

#include "cluster/coarse.hpp"
#include "grid/grid.hpp"
#include "legal/lp_legalizer.hpp"
#include "qp/quadratic.hpp"

namespace mp::legal {

struct MacroLegalizeOptions {
  LpLegalizeOptions lp;
  qp::QpOptions qp;
  /// Rounds of component re-detection + LP after step 3 before shoving.
  int component_rounds = 2;
};

struct MacroLegalizeResult {
  double overlap_before = 0.0;  ///< total pairwise macro overlap area
  double overlap_after = 0.0;
  int components = 0;   ///< overlap components processed by the LP
  bool used_shove = false;
};

/// Full three-step pipeline.  `group_anchors[g]` is the grid cell that RL or
/// MCTS assigned to macro group g.  Cell-group and macro positions in both
/// designs are updated; original std cells are moved to their group centers
/// (the cell placer refines them afterwards).
MacroLegalizeResult legalize_groups(netlist::Design& original,
                                    cluster::CoarseDesign& coarse,
                                    const cluster::Clustering& clustering,
                                    const grid::GridSpec& grid,
                                    const std::vector<grid::CellCoord>& group_anchors,
                                    const MacroLegalizeOptions& options = {});

/// Flat legalization for baselines that place macros directly (SA, wiremask)
/// and for regulate's nudged groups: movable macros outside the region are
/// fitted back into it, overlap components are resolved with the LP inside
/// the whole region, then a shove pass guarantees legality.  Fixed macros
/// are respected.
MacroLegalizeResult legalize_flat(netlist::Design& design,
                                  const MacroLegalizeOptions& options = {});

}  // namespace mp::legal
