#pragma once
// Flat mixed-size netlist model: macros, standard cells and I/O pads
// connected by multi-pin nets.  This is the input to every placer in the
// library and the object on which HPWL (the paper's quality metric) is
// evaluated.

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/geometry.hpp"

namespace mp::netlist {

using NodeId = int;
using NetId = int;
constexpr NodeId kInvalidNode = -1;

enum class NodeKind { kMacro, kStdCell, kPad };

/// A placeable (or fixed) rectangular object.
struct Node {
  std::string name;
  NodeKind kind = NodeKind::kStdCell;
  double width = 0.0;
  double height = 0.0;
  geometry::Point position;  ///< lower-left corner
  bool fixed = false;        ///< preplaced macros and pads are fixed
  /// Hierarchical instance path ("top/core0/alu/mul"); empty when the design
  /// carries no hierarchy (e.g. the ICCAD04-style benchmarks).
  std::string hierarchy;

  geometry::Rect rect() const {
    return geometry::Rect(position.x, position.y, width, height);
  }
  geometry::Point center() const {
    return {position.x + width / 2.0, position.y + height / 2.0};
  }
  double area() const { return width * height; }
};

/// A pin is an offset from its owner node's lower-left corner.
struct PinRef {
  NodeId node = kInvalidNode;
  double dx = 0.0;
  double dy = 0.0;
};

struct Net {
  std::string name;
  double weight = 1.0;
  std::vector<PinRef> pins;
};

/// Aggregate counts mirroring the columns of the paper's Tables II/III.
struct DesignStats {
  int movable_macros = 0;
  int preplaced_macros = 0;
  int io_pads = 0;
  int standard_cells = 0;
  int nets = 0;
  double macro_area = 0.0;
  double cell_area = 0.0;
  double region_area = 0.0;
};

/// Owning container for one design.  NodeIds and NetIds are dense indices
/// into the internal vectors and remain stable after construction (nodes and
/// nets are append-only).  The kind indexes and the node→net adjacency are
/// maintained by add_node/add_net, so every const accessor is a pure read
/// and safe to call from several threads at once.
class Design {
 public:
  Design() = default;
  Design(std::string name, geometry::Rect region)
      : name_(std::move(name)), region_(region) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const geometry::Rect& region() const { return region_; }
  void set_region(const geometry::Rect& region) { region_ = region; }

  /// Appends a node; returns its id.  Names should be unique (enforced in
  /// debug builds); lookup by name is available via find_node().
  NodeId add_node(Node node);

  /// Appends a net referencing existing nodes; returns its id.
  NetId add_net(Net net);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_nets() const { return nets_.size(); }

  Node& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  Net& net(NetId id) { return nets_[static_cast<std::size_t>(id)]; }
  const Net& net(NetId id) const { return nets_[static_cast<std::size_t>(id)]; }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Net>& nets() const { return nets_; }

  /// Node id by name, or nullopt when absent.
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Ids of all macros, movable macros, std cells and pads, ascending.
  /// Classified by kind and `fixed` as the node was added.
  const std::vector<NodeId>& macros() const { return macros_; }
  const std::vector<NodeId>& movable_macros() const { return movable_macros_; }
  const std::vector<NodeId>& std_cells() const { return std_cells_; }
  const std::vector<NodeId>& pads() const { return pads_; }

  /// Nets incident to each node, ascending (a net appears once per pin).
  const std::vector<std::vector<NetId>>& node_nets() const {
    return node_nets_;
  }

  /// Absolute location of one pin.
  geometry::Point pin_position(const PinRef& pin) const;

  /// Half-perimeter wirelength of one net (0 for nets with < 2 pins).
  double net_hpwl(NetId id) const;

  /// Weighted total HPWL over all nets — the paper's W.
  double total_hpwl() const;

  DesignStats stats() const;

  /// True when every movable node lies fully inside the placement region.
  bool all_inside_region() const;

  /// Sum of pairwise overlap areas between macros (0 for a legal placement).
  double macro_overlap_area() const;

 private:
  std::string name_;
  geometry::Rect region_;
  std::vector<Node> nodes_;
  std::vector<Net> nets_;
  std::unordered_map<std::string, NodeId> name_index_;

  std::vector<NodeId> macros_;
  std::vector<NodeId> movable_macros_;
  std::vector<NodeId> std_cells_;
  std::vector<NodeId> pads_;
  std::vector<std::vector<NetId>> node_nets_;
};

}  // namespace mp::netlist
