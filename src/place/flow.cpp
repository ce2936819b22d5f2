#include "place/flow.hpp"

#include "check/check.hpp"
#include "check/validators.hpp"
#include "obs/obs.hpp"
#include "place/detail.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mp::place {

namespace {

// ζ×ζ grid partition, clustering and coarse netlist on the design's current
// positions — the part of preprocessing both prepare functions share.
FlowContext cluster_flow(const netlist::Design& design,
                         const FlowOptions& options) {
  FlowContext context{
      grid::GridSpec(design.region(), options.grid_dim),
      {},
      {},
  };
  MP_OBS_SPAN("flow.clustering");
  context.clustering = cluster::cluster_design(design, context.spec,
                                               options.cluster);
  context.coarse = cluster::build_coarse_design(design, context.clustering);
  MP_OBS_GAUGE("flow.macro_groups",
               static_cast<double>(context.clustering.macro_groups.size()));
  MP_OBS_GAUGE("flow.cell_groups",
               static_cast<double>(context.clustering.cell_groups.size()));
  return context;
}

}  // namespace

FlowContext prepare_flow(netlist::Design& design, const FlowOptions& options) {
  MP_OBS_SPAN("flow.prepare");
  util::Timer timer;
  {
    MP_OBS_SPAN("flow.initial_gp");
    gp::GlobalPlaceOptions initial_gp = options.initial_gp;
    if (options.cancel.valid()) initial_gp.cancel = options.cancel;
    gp::global_place(design, initial_gp);
  }
  util::log_info() << "prepare_flow: initial GP in " << timer.seconds() << "s";

  FlowContext context = cluster_flow(design, options);
  check::validate_positions_finite(design, "flow.prepare");
  if (check::validate_level() >= 1) {
    // Every macro group must carry a positive footprint and every original
    // macro must belong to exactly one group (the -1 sentinel marks cells).
    for (const cluster::Group& group : context.clustering.macro_groups) {
      MP_CHECK_GT(group.width, 0.0, "macro group with non-positive width");
      MP_CHECK_GT(group.height, 0.0, "macro group with non-positive height");
    }
    for (netlist::NodeId id : design.movable_macros()) {
      const int mg = context.clustering.macro_group_of[static_cast<std::size_t>(id)];
      MP_CHECK_GE(mg, 0, "movable macro \"%s\" not assigned to a macro group",
                  design.node(id).name.c_str());
      MP_CHECK_LT(static_cast<std::size_t>(mg),
                  context.clustering.macro_groups.size(),
                  "macro group index out of range");
    }
  }
  return context;
}

FlowContext prepare_regulate_flow(const netlist::Design& design,
                                  const FlowOptions& options) {
  MP_OBS_SPAN("flow.prepare_regulate");
  return cluster_flow(design, options);
}

double finalize_placement(netlist::Design& design, FlowContext& context,
                          const std::vector<grid::CellCoord>& anchors,
                          const FlowOptions& options) {
  MP_OBS_SPAN("flow.finalize");
  gp::GlobalPlaceOptions final_gp = options.final_gp;
  if (options.cancel.valid()) final_gp.cancel = options.cancel;
  {
    MP_OBS_SPAN("flow.legalize");
    legal::legalize_groups(design, context.coarse, context.clustering,
                           context.spec, anchors, options.legalize);
  }
  double hpwl = place_cells_and_measure(design, final_gp);
  MP_OBS_HIST("flow.hpwl_after_legalize", hpwl);
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(hpwl, "HPWL after legalization");
    MP_CHECK_GE(hpwl, 0.0, "HPWL after legalization");
  }

  // Bounded macro refinement interleaved with cell placement (see
  // FlowOptions::refine_rounds).  Rounds that do not improve are rolled
  // back, so refinement can only help.
  for (int round = 0; round < options.refine_rounds; ++round) {
    if (options.cancel.cancelled()) break;  // keep the legal placement we have
    MP_OBS_SPAN("flow.refine_round");
    MP_OBS_COUNT("flow.refine_rounds", 1);
    const std::vector<netlist::NodeId>& movable = design.movable_macros();
    if (movable.empty()) break;
    const std::vector<geometry::Point> snapshot = detail::positions_of(design);

    // Widen the allowed displacement each round (1x, 2x, 4x, ... cells).
    const double widen =
        options.refine_inflation_cells * static_cast<double>(1 << round);
    const double dx = widen * context.spec.cell_width();
    const double dy = widen * context.spec.cell_height();
    std::vector<qp::BoxBound> bounds;
    bounds.reserve(movable.size());
    for (netlist::NodeId id : movable) {
      const geometry::Point c = design.node(id).center();
      bounds.push_back({id, geometry::Rect::from_corners(c.x - dx, c.y - dy,
                                                         c.x + dx, c.y + dy)});
    }
    qp::solve_quadratic_placement(design, movable, {}, bounds,
                                  options.legalize.qp);
    legal::legalize_flat(design, options.legalize);
    const double refined = place_cells_and_measure(design, final_gp);
    if (refined >= hpwl) {
      // Roll back and try the next (wider) round.
      detail::restore_positions(design, snapshot);
      continue;
    }
    MP_OBS_COUNT("flow.refine_rounds_accepted", 1);
    hpwl = refined;
  }

  MP_OBS_HIST("flow.final_hpwl", hpwl);
  // Final stage boundary: the flow's contract is a legal macro placement
  // with a finite, reproducible HPWL.
  check::validate_placement_legal(design, "flow.finalize");
  check::validate_positions_finite(design, "flow.finalize");
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(hpwl, "final HPWL");
    MP_CHECK_NEAR(hpwl, design.total_hpwl(),
                  1e-9 * (1.0 + design.total_hpwl()),
                  "returned HPWL diverges from the design state");
  }
  return hpwl;
}

double place_cells_and_measure(netlist::Design& design,
                               const gp::GlobalPlaceOptions& final_gp) {
  MP_OBS_SPAN("flow.final_gp");
  gp::GlobalPlaceOptions o = final_gp;
  o.move_macros = false;
  const gp::GlobalPlaceResult r = gp::global_place(design, o);
  return r.hpwl;
}

namespace detail {

std::vector<geometry::Point> positions_of(const netlist::Design& design) {
  std::vector<geometry::Point> positions;
  positions.reserve(design.num_nodes());
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    positions.push_back(design.node(static_cast<netlist::NodeId>(i)).position);
  }
  return positions;
}

void restore_positions(netlist::Design& design,
                       const std::vector<geometry::Point>& positions) {
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    design.node(static_cast<netlist::NodeId>(i)).position = positions[i];
  }
}

}  // namespace detail

}  // namespace mp::place
