#include "netlist/design.hpp"

#include <cassert>

namespace mp::netlist {

NodeId Design::add_node(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  assert(name_index_.find(node.name) == name_index_.end() &&
         "duplicate node name");
  name_index_.emplace(node.name, id);
  switch (node.kind) {
    case NodeKind::kMacro:
      macros_.push_back(id);
      if (!node.fixed) movable_macros_.push_back(id);
      break;
    case NodeKind::kStdCell:
      std_cells_.push_back(id);
      break;
    case NodeKind::kPad:
      pads_.push_back(id);
      break;
  }
  nodes_.push_back(std::move(node));
  node_nets_.emplace_back();
  return id;
}

NetId Design::add_net(Net net) {
  const NetId id = static_cast<NetId>(nets_.size());
  for (const PinRef& pin : net.pins) {
    assert(pin.node >= 0 &&
           static_cast<std::size_t>(pin.node) < nodes_.size() &&
           "net references unknown node");
    node_nets_[static_cast<std::size_t>(pin.node)].push_back(id);
  }
  nets_.push_back(std::move(net));
  return id;
}

std::optional<NodeId> Design::find_node(const std::string& name) const {
  const auto it = name_index_.find(name);
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

geometry::Point Design::pin_position(const PinRef& pin) const {
  const Node& owner = node(pin.node);
  return {owner.position.x + pin.dx, owner.position.y + pin.dy};
}

double Design::net_hpwl(NetId id) const {
  const Net& n = net(id);
  if (n.pins.size() < 2) return 0.0;
  geometry::BoundingBox box;
  for (const PinRef& pin : n.pins) box.add(pin_position(pin));
  return box.half_perimeter();
}

double Design::total_hpwl() const {
  double total = 0.0;
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    total += nets_[i].weight * net_hpwl(static_cast<NetId>(i));
  }
  return total;
}

DesignStats Design::stats() const {
  DesignStats s;
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case NodeKind::kMacro:
        if (n.fixed) ++s.preplaced_macros;
        else ++s.movable_macros;
        s.macro_area += n.area();
        break;
      case NodeKind::kStdCell:
        ++s.standard_cells;
        s.cell_area += n.area();
        break;
      case NodeKind::kPad:
        ++s.io_pads;
        break;
    }
  }
  s.nets = static_cast<int>(nets_.size());
  s.region_area = region_.area();
  return s;
}

bool Design::all_inside_region() const {
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kPad) continue;  // pads sit on the boundary ring
    if (!region_.contains(n.rect())) return false;
  }
  return true;
}

double Design::macro_overlap_area() const {
  const auto& macro_ids = macros();
  double total = 0.0;
  for (std::size_t i = 0; i < macro_ids.size(); ++i) {
    const geometry::Rect a = node(macro_ids[i]).rect();
    for (std::size_t j = i + 1; j < macro_ids.size(); ++j) {
      total += geometry::overlap_area(a, node(macro_ids[j]).rect());
    }
  }
  return total;
}

}  // namespace mp::netlist
