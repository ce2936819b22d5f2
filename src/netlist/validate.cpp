#include "netlist/validate.hpp"

#include <cmath>
#include <set>
#include <tuple>
#include <sstream>

namespace mp::netlist {

namespace {

std::string format(const char* what, const std::string& who,
                   const std::string& detail) {
  std::ostringstream os;
  os << what << " [" << who << "]";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

}  // namespace

ValidationReport validate_design(const Design& design,
                                 const ValidationOptions& options) {
  ValidationReport report;

  if (design.region().w <= 0.0 || design.region().h <= 0.0) {
    report.errors.push_back("placement region has non-positive extent");
  }

  // Nodes.
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    const Node& node = design.node(static_cast<NodeId>(i));
    if (node.kind != NodeKind::kPad &&
        (node.width <= 0.0 || node.height <= 0.0)) {
      report.errors.push_back(
          format("non-positive dimensions", node.name,
                 std::to_string(node.width) + " x " +
                     std::to_string(node.height)));
    }
    if (!std::isfinite(node.position.x) || !std::isfinite(node.position.y)) {
      report.errors.push_back(format("non-finite position", node.name, ""));
    }
  }

  // Nets.
  for (std::size_t n = 0; n < design.num_nets(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    if (net.weight < 0.0) {
      report.errors.push_back(format("negative net weight", net.name, ""));
    }
    std::set<std::tuple<NodeId, double, double>> seen;
    for (const PinRef& pin : net.pins) {
      if (pin.node < 0 ||
          static_cast<std::size_t>(pin.node) >= design.num_nodes()) {
        report.errors.push_back(
            format("net references invalid node", net.name,
                   "node id " + std::to_string(pin.node)));
        continue;
      }
      if (!seen.insert({pin.node, pin.dx, pin.dy}).second) {
        report.warnings.push_back(
            format("duplicate pin", net.name,
                   design.node(pin.node).name + " at same offset"));
      }
    }
    if (options.check_connectivity && net.pins.size() < 2) {
      report.warnings.push_back(format("net with fewer than 2 pins", net.name, ""));
    }
  }

  // Connectivity of movable macros.
  if (options.check_connectivity) {
    const auto& adjacency = design.node_nets();
    for (NodeId id : design.movable_macros()) {
      if (adjacency[static_cast<std::size_t>(id)].empty()) {
        report.warnings.push_back(
            format("disconnected movable macro", design.node(id).name, ""));
      }
    }
  }

  // Geometry.
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    const Node& node = design.node(static_cast<NodeId>(i));
    if (node.kind == NodeKind::kPad) continue;
    if (!design.region().contains(node.rect())) {
      report.warnings.push_back(
          format("node outside placement region", node.name, ""));
    }
  }
  if (options.check_macro_overlap) {
    const double overlap = design.macro_overlap_area();
    if (overlap > options.overlap_tolerance * design.region().area()) {
      report.warnings.push_back(
          format("macro overlap", design.name(),
                 "total area " + std::to_string(overlap)));
    }
  }
  return report;
}

}  // namespace mp::netlist
