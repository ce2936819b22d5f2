#pragma once
// The macro-group allocation MDP (Sec. III-A/B).  An episode places the
// macro groups, in non-increasing area order, one per step; an action is the
// flat index of the grid cell whose lower-left corner anchors the group.
// The observable state is ⟨s_p, s_a, t⟩:
//   s_p — per-cell utilization of everything placed so far (plus preplaced
//         macros), groups aligned to the lower-left corner of their anchor,
//   s_a — Eq. (4) availability of each anchor for the *next* group,
//   t   — the sequence number of the group to place.

#include <memory>
#include <vector>

#include "cluster/coarse.hpp"
#include "grid/occupancy.hpp"

namespace mp::rl {

/// Evaluates the wirelength of a complete allocation (anchors for every
/// macro group).  Training uses a fast coarse evaluator; the final flow can
/// plug in the full legalize-and-place pipeline.
class AllocationEvaluator {
 public:
  virtual ~AllocationEvaluator() = default;
  /// Returns the HPWL W of the placement induced by `anchors`.
  virtual double evaluate(const std::vector<grid::CellCoord>& anchors) = 0;

  /// Optimistic completion estimate for a *partial* allocation: the first
  /// `anchors.size()` groups are pinned, the remaining groups relax freely.
  /// Used by the MCTS partial-placement leaf evaluation; the default falls
  /// back to pinning nothing extra and is only exact for full allocations.
  virtual double evaluate_partial(const std::vector<grid::CellCoord>& anchors) {
    return evaluate(anchors);
  }

  /// Independent copy for use on a par:: worker thread, or nullptr when the
  /// evaluator is not clonable (callers must then evaluate serially through
  /// the shared instance).  A clone must return bit-identical values for
  /// identical allocations.
  virtual std::unique_ptr<AllocationEvaluator> clone() const { return nullptr; }
};

/// Per-step action restriction: mask[t] is the sorted list of flat cell
/// indices the step-t group may anchor at.  Shared (immutable) so copying an
/// env — the MCTS batched leaf path copies envs per pending leaf — stays
/// cheap.  The regulate flow builds one from the incumbent anchors and the
/// trust-region radius (place/regulate_placer.cpp).
using ActionMask = std::vector<std::vector<int>>;

class PlacementEnv {
 public:
  /// `coarse` and `clustering` must outlive the environment.
  PlacementEnv(const cluster::CoarseDesign& coarse,
               const cluster::Clustering& clustering, grid::GridSpec spec);

  /// Restricts step() / legal_actions() to the masked cells: step t only
  /// accepts actions in (*mask)[t], and legal_actions() only scans them.
  /// `mask` must have one entry per step, each sorted ascending; nullptr
  /// removes the restriction.  Affects future steps only (not a reset).
  void set_allowed_actions(std::shared_ptr<const ActionMask> mask);
  const std::shared_ptr<const ActionMask>& allowed_actions() const {
    return mask_;
  }

  const grid::GridSpec& spec() const { return spec_; }
  int num_steps() const { return static_cast<int>(footprints_.size()); }
  int current_step() const { return step_; }
  bool done() const { return step_ >= num_steps(); }

  void reset();

  /// s_p as a flat dim×dim utilization map.
  std::vector<double> placement_state() const { return occupancy_.utilization_map(); }

  /// Footprint (s_m) of the group to be placed at the current step.
  const grid::Footprint& current_footprint() const;

  /// s_a (Eq. 4) for the current step's group.
  std::vector<double> availability() const;

  /// Places the current group with its anchor at flat cell index `action`.
  /// Returns false (state unchanged) when the action is out of bounds or the
  /// footprint would leave the chip.
  bool step(int action);

  /// Anchors chosen so far (size == current_step()).
  const std::vector<grid::CellCoord>& anchors() const { return anchors_; }

  /// Flat indices of the actions that keep the footprint on-chip at the
  /// current step (availability may still be 0 on full cells).
  std::vector<int> legal_actions() const;

 private:
  const cluster::CoarseDesign& coarse_;
  grid::GridSpec spec_;
  std::vector<grid::Footprint> footprints_;  ///< per macro group, in order
  grid::OccupancyMap occupancy_;
  grid::OccupancyMap initial_occupancy_;  ///< preplaced macros only
  std::vector<grid::CellCoord> anchors_;
  std::shared_ptr<const ActionMask> mask_;  ///< nullptr = all cells allowed
  int step_ = 0;
};

}  // namespace mp::rl
