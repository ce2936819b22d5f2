#include "rl/coarse_evaluator.hpp"

#include <cassert>

#include "obs/obs.hpp"

namespace mp::rl {

CoarseEvaluator::CoarseEvaluator(const cluster::CoarseDesign& coarse,
                                 grid::GridSpec spec, qp::QpOptions qp_options)
    : design_(coarse.design),
      macro_group_nodes_(coarse.macro_group_nodes),
      cell_group_nodes_(coarse.cell_group_nodes),
      spec_(spec),
      qp_options_(qp_options) {
  initial_cell_positions_.reserve(cell_group_nodes_.size());
  for (netlist::NodeId id : cell_group_nodes_) {
    initial_cell_positions_.push_back(design_.node(id).position);
  }
  initial_macro_positions_.reserve(macro_group_nodes_.size());
  for (netlist::NodeId id : macro_group_nodes_) {
    initial_macro_positions_.push_back(design_.node(id).position);
  }
}

double CoarseEvaluator::evaluate(const std::vector<grid::CellCoord>& anchors) {
  assert(anchors.size() == macro_group_nodes_.size());
  ++evaluations_;
  MP_OBS_COUNT("evaluator.coarse_evaluations", 1);
  // Pin each macro group with its lower-left corner at the anchor cell's
  // origin — the same alignment the occupancy/state model uses.
  for (std::size_t g = 0; g < anchors.size(); ++g) {
    netlist::Node& node = design_.node(macro_group_nodes_[g]);
    node.position = spec_.cell_origin(anchors[g]);
  }
  for (std::size_t c = 0; c < cell_group_nodes_.size(); ++c) {
    design_.node(cell_group_nodes_[c]).position = initial_cell_positions_[c];
  }
  qp::solve_quadratic_placement(design_, cell_group_nodes_, {}, {}, qp_options_);
  return design_.total_hpwl();
}

double CoarseEvaluator::evaluate_partial(
    const std::vector<grid::CellCoord>& anchors) {
  assert(anchors.size() <= macro_group_nodes_.size());
  ++evaluations_;
  MP_OBS_COUNT("evaluator.coarse_partial_evaluations", 1);
  // Pin the prefix; everything else (remaining macro groups + cell groups)
  // starts from its canonical position and relaxes in one joint QP.
  std::vector<netlist::NodeId> movable;
  movable.reserve(macro_group_nodes_.size() - anchors.size() +
                  cell_group_nodes_.size());
  for (std::size_t g = 0; g < macro_group_nodes_.size(); ++g) {
    netlist::Node& node = design_.node(macro_group_nodes_[g]);
    if (g < anchors.size()) {
      node.position = spec_.cell_origin(anchors[g]);
    } else {
      node.position = initial_macro_positions_[g];
      movable.push_back(macro_group_nodes_[g]);
    }
  }
  for (std::size_t c = 0; c < cell_group_nodes_.size(); ++c) {
    design_.node(cell_group_nodes_[c]).position = initial_cell_positions_[c];
    movable.push_back(cell_group_nodes_[c]);
  }
  qp::solve_quadratic_placement(design_, movable, {}, {}, qp_options_);
  return design_.total_hpwl();
}

}  // namespace mp::rl
