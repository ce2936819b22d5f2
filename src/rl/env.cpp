#include "rl/env.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "obs/obs.hpp"

namespace mp::rl {

PlacementEnv::PlacementEnv(const cluster::CoarseDesign& coarse,
                           const cluster::Clustering& clustering,
                           grid::GridSpec spec)
    : coarse_(coarse),
      spec_(spec),
      occupancy_(spec),
      initial_occupancy_(spec) {
  footprints_.reserve(clustering.macro_groups.size());
  for (const cluster::Group& group : clustering.macro_groups) {
    footprints_.push_back(grid::make_footprint(spec_, group.width, group.height));
  }
  // Preplaced (fixed) macros pre-fill the occupancy: their geometric overlap
  // with each cell counts as occupied area.
  for (const netlist::Node& node : coarse_.design.nodes()) {
    if (node.kind != netlist::NodeKind::kMacro || !node.fixed) continue;
    const geometry::Rect rect = node.rect();
    const grid::Footprint fp = grid::make_footprint(spec_, rect.w, rect.h);
    grid::CellCoord anchor = spec_.cell_of(rect.lower_left());
    // Clamp so the footprint stays on the grid (fixed macros on the border).
    anchor.gx = std::min(anchor.gx, spec_.dim() - fp.nx);
    anchor.gy = std::min(anchor.gy, spec_.dim() - fp.ny);
    if (anchor.gx < 0 || anchor.gy < 0) continue;
    initial_occupancy_.place(fp, anchor);
  }
  reset();
}

void PlacementEnv::set_allowed_actions(
    std::shared_ptr<const ActionMask> mask) {
  MP_CHECK(mask == nullptr ||
               static_cast<int>(mask->size()) == num_steps(),
           "action mask must cover every step");
  mask_ = std::move(mask);
}

void PlacementEnv::reset() {
  occupancy_ = initial_occupancy_;
  anchors_.clear();
  step_ = 0;
}

const grid::Footprint& PlacementEnv::current_footprint() const {
  assert(!done());
  return footprints_[static_cast<std::size_t>(step_)];
}

std::vector<double> PlacementEnv::availability() const {
  assert(!done());
  return grid::availability_map(occupancy_, current_footprint());
}

bool PlacementEnv::step(int action) {
  assert(!done());
  if (action < 0 || action >= spec_.num_cells()) return false;
  if (mask_ != nullptr) {
    const std::vector<int>& allowed = (*mask_)[static_cast<std::size_t>(step_)];
    if (!std::binary_search(allowed.begin(), allowed.end(), action)) {
      return false;
    }
  }
  const grid::CellCoord anchor = spec_.coord(action);
  const grid::Footprint& fp = current_footprint();
  if (!occupancy_.fits(fp, anchor)) return false;
  occupancy_.place(fp, anchor);
  anchors_.push_back(anchor);
  ++step_;
  MP_OBS_COUNT("rl.env.steps", 1);
  // The incremental occupancy map is the env's only source of truth for
  // legality; reconcile it against a replay of the anchor history — every
  // step when exhaustive, once per episode when cheap.
  const int level = check::validate_level();
  if (level >= 2 || (level >= 1 && done())) {
    check::validate_occupancy_reconciles(occupancy_, initial_occupancy_,
                                         footprints_, anchors_, "rl.env.step");
  }
  return true;
}

std::vector<int> PlacementEnv::legal_actions() const {
  assert(!done());
  const grid::Footprint& fp = current_footprint();
  std::vector<int> actions;
  if (mask_ != nullptr) {
    // Masked steps scan only the allowed cells (already sorted), so the
    // trust-region flows pay O(|mask|) instead of O(dim^2) per expansion.
    for (int flat : (*mask_)[static_cast<std::size_t>(step_)]) {
      if (occupancy_.fits(fp, spec_.coord(flat))) actions.push_back(flat);
    }
    return actions;
  }
  for (int flat = 0; flat < spec_.num_cells(); ++flat) {
    if (occupancy_.fits(fp, spec_.coord(flat))) actions.push_back(flat);
  }
  return actions;
}

}  // namespace mp::rl
