#include "place/detail.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "grid/occupancy.hpp"
#include "util/log.hpp"

namespace mp::place {

using netlist::Design;
using netlist::NetId;
using netlist::NodeId;

namespace {

// Bounding box of the "committed" pins of one net (cells, pads, fixed and
// already-placed macros).  Unplaced movable macros are excluded until they
// commit.
struct NetBox {
  geometry::BoundingBox box;
  double weight = 1.0;
};

}  // namespace

namespace detail {

PlaceResult wiremask_place(Design& design, const WiremaskOptions& options) {
  PlaceResult result;

  gp::global_place(design, options.initial_gp);

  std::vector<NodeId> macros = design.movable_macros();
  std::sort(macros.begin(), macros.end(), [&](NodeId a, NodeId b) {
    return design.node(a).area() > design.node(b).area();
  });
  if (macros.empty()) {
    result.hpwl = place_cells_and_measure(design, options.final_gp);
    return result;
  }

  std::vector<bool> is_unplaced(design.num_nodes(), false);
  for (NodeId id : macros) is_unplaced[static_cast<std::size_t>(id)] = true;

  // Per-net committed-pin boxes.
  std::vector<NetBox> boxes(design.num_nets());
  std::vector<bool> net_usable(design.num_nets(), false);
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const netlist::Net& net = design.net(static_cast<NetId>(n));
    if (net.pins.size() < 2 || net.pins.size() > options.max_net_degree) continue;
    net_usable[n] = true;
    boxes[n].weight = net.weight;
    for (const netlist::PinRef& pin : net.pins) {
      if (is_unplaced[static_cast<std::size_t>(pin.node)]) continue;
      boxes[n].box.add(design.pin_position(pin));
    }
  }

  const grid::GridSpec spec(design.region(), options.grid_dim);
  grid::OccupancyMap occupancy(spec);
  // Fixed macros pre-fill the occupancy.
  for (NodeId id : design.macros()) {
    const netlist::Node& node = design.node(id);
    if (!node.fixed) continue;
    const grid::Footprint fp = grid::make_footprint(spec, node.width, node.height);
    grid::CellCoord anchor = spec.cell_of(node.position);
    anchor.gx = std::min(anchor.gx, spec.dim() - fp.nx);
    anchor.gy = std::min(anchor.gy, spec.dim() - fp.ny);
    if (anchor.gx >= 0 && anchor.gy >= 0) occupancy.place(fp, anchor);
  }

  const auto& adjacency = design.node_nets();
  for (NodeId macro : macros) {
    netlist::Node& node = design.node(macro);
    const grid::Footprint fp = grid::make_footprint(spec, node.width, node.height);
    const std::vector<double> availability =
        grid::availability_map(occupancy, fp);

    // Wiremask: incremental HPWL of placing this macro's pins at each anchor.
    int best_action = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    bool best_available = false;
    for (int flat = 0; flat < spec.num_cells(); ++flat) {
      const grid::CellCoord anchor = spec.coord(flat);
      if (!occupancy.fits(fp, anchor)) continue;
      const geometry::Point origin = spec.cell_origin(anchor);
      double cost = 0.0;
      for (NetId net_id : adjacency[static_cast<std::size_t>(macro)]) {
        if (!net_usable[static_cast<std::size_t>(net_id)]) continue;
        const NetBox& nb = boxes[static_cast<std::size_t>(net_id)];
        // Incremental growth of the committed box when this macro's pins
        // land relative to `origin`.
        for (const netlist::PinRef& pin : design.net(net_id).pins) {
          if (pin.node != macro) continue;
          const geometry::Point p{origin.x + pin.dx, origin.y + pin.dy};
          if (nb.box.empty()) continue;
          const double grow_x = std::max(0.0, nb.box.min_x() - p.x) +
                                std::max(0.0, p.x - nb.box.max_x());
          const double grow_y = std::max(0.0, nb.box.min_y() - p.y) +
                                std::max(0.0, p.y - nb.box.max_y());
          cost += nb.weight * (grow_x + grow_y);
        }
      }
      ++result.wiremask_candidates;
      const bool available = availability[static_cast<std::size_t>(flat)] > 0.0;
      // Prefer available (non-overflowing) anchors; among equals, min cost.
      const bool better =
          (available && !best_available) ||
          (available == best_available && cost < best_cost);
      if (better) {
        best_cost = cost;
        best_action = flat;
        best_available = available;
      }
    }
    if (best_action < 0) best_action = 0;
    const grid::CellCoord anchor = spec.coord(best_action);
    const geometry::Point origin = spec.cell_origin(anchor);
    node.position = origin;
    if (occupancy.fits(fp, anchor)) occupancy.place(fp, anchor);
    is_unplaced[static_cast<std::size_t>(macro)] = false;
    // Commit this macro's pins into the net boxes.
    for (NetId net_id : adjacency[static_cast<std::size_t>(macro)]) {
      if (!net_usable[static_cast<std::size_t>(net_id)]) continue;
      for (const netlist::PinRef& pin : design.net(net_id).pins) {
        if (pin.node == macro) {
          boxes[static_cast<std::size_t>(net_id)].box.add(
              design.pin_position(pin));
        }
      }
    }
  }

  legal::legalize_flat(design, options.legalize);
  result.hpwl = place_cells_and_measure(design, options.final_gp);
  util::log_info() << "wiremask_place: hpwl=" << result.hpwl;
  return result;
}

}  // namespace detail

}  // namespace mp::place
