#pragma once
// Flow plumbing behind place::run, private to src/place: the
// train-then-search routine the three RL presets share, the regulate
// preset's own stages around it, and the baselines.  Not API (docs/API.md
// documents run() and PlacerSpec only).

#include <memory>
#include <vector>

#include "place/placer.hpp"

namespace mp::place::detail {

/// Every node's position, and the inverse: roll `design` back to them.
std::vector<geometry::Point> positions_of(const netlist::Design& design);
void restore_positions(netlist::Design& design,
                       const std::vector<geometry::Point>& positions);

/// Grid anchor of a group placed at its centroid: the cell of its
/// lower-left corner, clamped so the footprint stays on-chip.
grid::CellCoord group_anchor(const grid::GridSpec& spec,
                             const cluster::Group& group);

/// How an RL preset steers the shared train-then-search routine.
struct SearchPlan {
  /// Play the trained policy greedily instead of searching (rl_only).
  bool greedy = false;
  /// Per-group allowed actions (regulate's trust region); a masked search
  /// also commits forced steps directly (MctsOptions::auto_commit_forced).
  std::shared_ptr<const rl::ActionMask> mask;
  /// One anchor per macro group: the first seed line of the search, ahead
  /// of the best training allocation.  Empty = pure π_θ search: no seed
  /// lines and no prior bias.
  std::vector<grid::CellCoord> guide;
  /// Per group, the point its expansion prior is pulled toward:
  /// bonus = exp(-manhattan(anchor, target) / temperature) + 1e-4.
  std::vector<geometry::Point> targets;
  double temperature = 1.0;
};

/// Algorithm 1 lines 3-15 on a prepared context, shared by the RL presets:
/// builds the agent (restoring options.initial_parameters), the env and the
/// CoarseEvaluator, trains under the rl.train span, then plays the greedy
/// episode (falling back to the best training allocation when that is
/// shorter) or runs MctsPlacer under mcts.search.  Fills the RL fields of
/// `result` and returns the allocation, which is incomplete when the run
/// was cancelled before one existed.
std::vector<grid::CellCoord> train_then_search(const RlFlowOptions& options,
                                               FlowContext& context,
                                               const SearchPlan& plan,
                                               PlaceResult& result);

/// The regulate flow on a context from prepare_regulate_flow: trust-region
/// set-up, train_then_search, then translate the moved groups, re-legalize
/// and accept greedily so the HPWL never exceeds the legal input's.
/// `options` is the RL part of `regulate` with the run's cancel token.
void regulate_place(netlist::Design& design, FlowContext& context,
                    const RlFlowOptions& options,
                    const RegulateOptions& regulate, PlaceResult& result);

/// The baselines: each places from the raw design and fills hpwl and its
/// own statistics.
PlaceResult sa_place(netlist::Design& design, const SaOptions& options);
PlaceResult wiremask_place(netlist::Design& design,
                           const WiremaskOptions& options);
PlaceResult analytic_place(netlist::Design& design,
                           const AnalyticOptions& options);

}  // namespace mp::place::detail
