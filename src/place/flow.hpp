#pragma once
// Shared flow plumbing (preprocessing and postprocessing stages of
// Algorithm 1): initial analytical placement, grid partition, clustering,
// coarse netlist, and the finalize step (macro legalization + cell placement
// + HPWL measurement).  The three RL presets (mcts, rl_only, regulate) run
// on top of this context.

#include "cluster/coarse.hpp"
#include "gp/global_placer.hpp"
#include "grid/grid.hpp"
#include "legal/legalizer.hpp"

namespace mp::place {

/// Mixed-size global placement options: macros move together with the
/// cells for `max_iterations` iterations.
inline gp::GlobalPlaceOptions mixed_size_gp(int max_iterations) {
  gp::GlobalPlaceOptions o;
  o.move_macros = true;
  o.max_iterations = max_iterations;
  return o;
}

struct FlowOptions {
  int grid_dim = 16;  ///< ζ (paper: 16)
  cluster::ClusterParams cluster;
  /// Mixed-size initial placement that seeds clustering distances.
  gp::GlobalPlaceOptions initial_gp = mixed_size_gp(8);
  /// Final cell placement with macros fixed (DREAMPlace role, Sec. II-C).
  gp::GlobalPlaceOptions final_gp;
  legal::MacroLegalizeOptions legalize;
  /// Post-legalization refinement rounds: each round places cells, re-solves
  /// the macro QP with cells fixed (displacement bounded to
  /// `refine_inflation_cells` grid cells around the current position) and
  /// removes overlaps again.  Recovers the grid-quantization loss of the
  /// anchor-pinned legalization; 0 reproduces the paper's flow verbatim.
  int refine_rounds = 3;
  double refine_inflation_cells = 1.0;
  /// Cooperative cancellation (docs/SERVICE.md): propagated into the GP
  /// stages and polled at refinement-round boundaries.  A cancelled finalize
  /// still completes macro legalization and one cell placement pass, so the
  /// design it leaves behind is structurally valid; only the optional
  /// refinement is skipped.  Inert/untriggered tokens are bit-identical.
  util::CancelToken cancel;
};

struct FlowContext {
  grid::GridSpec spec;
  cluster::Clustering clustering;
  cluster::CoarseDesign coarse;
};

/// Runs the preprocessing stage: initial global placement (mutates node
/// positions), ζ×ζ grid partition, clustering, coarse netlist.
FlowContext prepare_flow(netlist::Design& design, const FlowOptions& options);

/// Preprocessing for the regulate flow: ζ×ζ grid partition, clustering and
/// coarse netlist on the *incumbent* positions — unlike prepare_flow there
/// is no initial global placement, so `design` is not mutated and the input
/// placement survives to seed the clustering distances and the trust
/// region.  Cacheable per (design bytes, placement bytes, grid_dim) — the
/// service's warm ECO path (src/svc/cache.hpp).
FlowContext prepare_regulate_flow(const netlist::Design& design,
                                  const FlowOptions& options);

/// Postprocessing: legalizes macros from the group `anchors` (Sec. II-B),
/// places cells with the analytical placer (Sec. II-C) and returns the final
/// HPWL of `design`.
double finalize_placement(netlist::Design& design, FlowContext& context,
                          const std::vector<grid::CellCoord>& anchors,
                          const FlowOptions& options);

/// Places cells with macros fixed and returns HPWL (used by the baselines
/// that position macros directly).
double place_cells_and_measure(netlist::Design& design,
                               const gp::GlobalPlaceOptions& final_gp);

}  // namespace mp::place
