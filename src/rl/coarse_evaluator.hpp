#pragma once
// Fast in-loop wirelength evaluator (used during RL training and for MCTS
// terminal nodes in fast mode): macro groups are pinned to their anchor
// cells, cell groups are placed by the quadratic program (legalization step
// 1), and the coarse netlist's HPWL is returned.  The full-fidelity
// evaluator (legalize + flat cell placement) lives in place/.

#include "qp/quadratic.hpp"
#include "rl/env.hpp"

namespace mp::rl {

class CoarseEvaluator : public AllocationEvaluator {
 public:
  /// Copies the coarse design; the original is never mutated.
  CoarseEvaluator(const cluster::CoarseDesign& coarse, grid::GridSpec spec,
                  qp::QpOptions qp_options = {});

  double evaluate(const std::vector<grid::CellCoord>& anchors) override;

  /// Pins the first anchors.size() macro groups; the remaining macro groups
  /// and all cell groups are placed by the QP — a smooth lower-bound-ish
  /// estimate of the best completion of this prefix.
  double evaluate_partial(const std::vector<grid::CellCoord>& anchors) override;

  /// Number of evaluations performed (for runtime accounting).
  long long evaluations() const { return evaluations_; }

  /// Value copy — all state (design, warm-start positions, options) is
  /// copyable, and evaluate() resets positions first, so a clone produces
  /// bit-identical values to the original.
  std::unique_ptr<AllocationEvaluator> clone() const override {
    return std::make_unique<CoarseEvaluator>(*this);
  }

 private:
  netlist::Design design_;
  std::vector<netlist::NodeId> macro_group_nodes_;
  std::vector<netlist::NodeId> cell_group_nodes_;
  /// Canonical cell-group start positions: the QP warm start is reset before
  /// every evaluation so identical allocations give bit-identical wirelength
  /// regardless of evaluation history (required for MCTS value consistency).
  std::vector<geometry::Point> initial_cell_positions_;
  std::vector<geometry::Point> initial_macro_positions_;
  grid::GridSpec spec_;
  qp::QpOptions qp_options_;
  long long evaluations_ = 0;
};

}  // namespace mp::rl
