#include "qp/quadratic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "check/check.hpp"
#include "obs/obs.hpp"

namespace mp::qp {

using netlist::Design;
using netlist::Net;
using netlist::NodeId;
using netlist::PinRef;

namespace {

// Per-axis assembled system: A z = b over movable variables + star variables.
struct AxisSystem {
  linalg::TripletBuilder triplets;
  linalg::Vec rhs;
  explicit AxisSystem(std::size_t n) : triplets(n), rhs(n, 0.0) {}

  // Quadratic term w * (z_i + o_i - z_j - o_j)^2 between two variables.
  void connect_vars(std::size_t i, std::size_t j, double o_i, double o_j,
                    double w) {
    if (i == j) return;
    triplets.add_connection(i, j, w);
    rhs[i] += w * (o_j - o_i);
    rhs[j] += w * (o_i - o_j);
  }

  // Quadratic term w * (z_i + o_i - c)^2 against a fixed coordinate c.
  void connect_fixed(std::size_t i, double o_i, double c, double w) {
    triplets.add_diagonal(i, w);
    rhs[i] += w * (c - o_i);
  }
};

}  // namespace

QpResult solve_quadratic_placement(Design& design,
                                   const std::vector<NodeId>& movable,
                                   const std::vector<Anchor>& anchors,
                                   const std::vector<BoxBound>& bounds,
                                   const QpOptions& options) {
  // Variable mapping: movable nodes first, star variables appended later.
  std::vector<int> var_of_node(design.num_nodes(), -1);
  for (std::size_t i = 0; i < movable.size(); ++i) {
    var_of_node[static_cast<std::size_t>(movable[i])] = static_cast<int>(i);
  }

  // Count star variables.
  std::size_t num_star = 0;
  for (const Net& net : design.nets()) {
    const int degree = static_cast<int>(net.pins.size());
    if (degree < 2 || degree > options.max_net_degree) continue;
    if (degree > options.clique_max_degree) ++num_star;
  }
  const std::size_t n_vars = movable.size() + num_star;
  if (movable.empty()) return {};

  AxisSystem sys_x(n_vars), sys_y(n_vars);

  // Assembles one pin's contribution descriptor.
  struct PinInfo {
    int var;          // -1 when fixed
    double off_x, off_y;  // pin offset from the node *center* (variable)
    double fix_x, fix_y;  // absolute pin location when fixed
  };
  const auto pin_info = [&](const PinRef& pin) {
    const netlist::Node& node = design.node(pin.node);
    PinInfo info{};
    info.var = var_of_node[static_cast<std::size_t>(pin.node)];
    info.off_x = pin.dx - node.width / 2.0;
    info.off_y = pin.dy - node.height / 2.0;
    const geometry::Point p = design.pin_position(pin);
    info.fix_x = p.x;
    info.fix_y = p.y;
    return info;
  };

  std::size_t next_star = movable.size();
  for (const Net& net : design.nets()) {
    const int degree = static_cast<int>(net.pins.size());
    if (degree < 2 || degree > options.max_net_degree) continue;

    if (degree <= options.clique_max_degree) {
      const double w = net.weight / static_cast<double>(degree - 1);
      for (int a = 0; a < degree; ++a) {
        const PinInfo pa = pin_info(net.pins[static_cast<std::size_t>(a)]);
        for (int b = a + 1; b < degree; ++b) {
          const PinInfo pb = pin_info(net.pins[static_cast<std::size_t>(b)]);
          if (pa.var >= 0 && pb.var >= 0) {
            sys_x.connect_vars(static_cast<std::size_t>(pa.var),
                               static_cast<std::size_t>(pb.var), pa.off_x,
                               pb.off_x, w);
            sys_y.connect_vars(static_cast<std::size_t>(pa.var),
                               static_cast<std::size_t>(pb.var), pa.off_y,
                               pb.off_y, w);
          } else if (pa.var >= 0) {
            sys_x.connect_fixed(static_cast<std::size_t>(pa.var), pa.off_x,
                                pb.fix_x, w);
            sys_y.connect_fixed(static_cast<std::size_t>(pa.var), pa.off_y,
                                pb.fix_y, w);
          } else if (pb.var >= 0) {
            sys_x.connect_fixed(static_cast<std::size_t>(pb.var), pb.off_x,
                                pa.fix_x, w);
            sys_y.connect_fixed(static_cast<std::size_t>(pb.var), pb.off_y,
                                pa.fix_y, w);
          }
        }
      }
    } else {
      // Star model: one extra variable per large net; edge weight scaled so
      // the star is wirelength-equivalent to the clique (FastPlace scaling).
      const std::size_t star = next_star++;
      const double w =
          net.weight * static_cast<double>(degree) /
          static_cast<double>(degree - 1);
      bool star_used = false;
      for (const PinRef& pin : net.pins) {
        const PinInfo p = pin_info(pin);
        if (p.var >= 0) {
          sys_x.connect_vars(static_cast<std::size_t>(p.var), star, p.off_x,
                             0.0, w);
          sys_y.connect_vars(static_cast<std::size_t>(p.var), star, p.off_y,
                             0.0, w);
          star_used = true;
        } else {
          sys_x.connect_fixed(star, 0.0, p.fix_x, w);
          sys_y.connect_fixed(star, 0.0, p.fix_y, w);
          star_used = true;
        }
      }
      if (!star_used) {
        // Keep the system non-singular if the net had no usable pins.
        sys_x.triplets.add_diagonal(star, 1.0);
        sys_y.triplets.add_diagonal(star, 1.0);
      }
    }
  }

  // Anchors.
  for (const Anchor& anchor : anchors) {
    const int var = var_of_node[static_cast<std::size_t>(anchor.node)];
    assert(var >= 0 && "anchor on non-movable node");
    sys_x.connect_fixed(static_cast<std::size_t>(var), 0.0, anchor.target.x,
                        anchor.weight);
    sys_y.connect_fixed(static_cast<std::size_t>(var), 0.0, anchor.target.y,
                        anchor.weight);
  }

  // Regularize isolated movable nodes (no net, no anchor) toward the region
  // center so the system stays SPD.
  const geometry::Point region_center = design.region().center();
  {
    // Detect zero-diagonal variables by assembling once and inspecting.
    linalg::CsrMatrix probe = linalg::CsrMatrix::from_triplets(sys_x.triplets);
    const linalg::Vec diag = probe.diagonal();
    for (std::size_t i = 0; i < n_vars; ++i) {
      if (diag[i] <= 0.0) {
        sys_x.connect_fixed(i, 0.0, region_center.x, 1e-6);
        sys_y.connect_fixed(i, 0.0, region_center.y, 1e-6);
      }
    }
  }

  const linalg::CsrMatrix ax = linalg::CsrMatrix::from_triplets(sys_x.triplets);
  const linalg::CsrMatrix ay = linalg::CsrMatrix::from_triplets(sys_y.triplets);

  // Warm start from current centers.
  linalg::Vec x(n_vars, region_center.x), y(n_vars, region_center.y);
  for (std::size_t i = 0; i < movable.size(); ++i) {
    const geometry::Point c = design.node(movable[i]).center();
    x[i] = c.x;
    y[i] = c.y;
  }

  QpResult result;
  result.cg_x = linalg::conjugate_gradient(ax, sys_x.rhs, x, options.cg);
  result.cg_y = linalg::conjugate_gradient(ay, sys_y.rhs, y, options.cg);
  // The CG layer certifies its own residuals; here guard the QP contract:
  // the coordinates written back into the design must be finite numbers.
  if (check::validate_level() >= 1) {
    for (std::size_t i = 0; i < movable.size(); ++i) {
      MP_CHECK(std::isfinite(x[i]) && std::isfinite(y[i]),
               "QP solution for node %d not finite (x=%g, y=%g)", movable[i],
               x[i], y[i]);
    }
  }
  MP_OBS_COUNT("qp.solves", 1);
  MP_OBS_COUNT("qp.cg_iterations", result.cg_x.iterations + result.cg_y.iterations);
  MP_OBS_HIST("qp.cg_iterations_per_solve",
              static_cast<double>(result.cg_x.iterations + result.cg_y.iterations));

  // Write back (center -> lower-left), applying box bounds then the region
  // clamp.
  std::vector<int> bound_of_node(design.num_nodes(), -1);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bound_of_node[static_cast<std::size_t>(bounds[i].node)] = static_cast<int>(i);
  }
  const geometry::Rect region = design.region();
  for (std::size_t i = 0; i < movable.size(); ++i) {
    netlist::Node& node = design.node(movable[i]);
    double cx = x[i];
    double cy = y[i];
    const int b = bound_of_node[static_cast<std::size_t>(movable[i])];
    if (b >= 0) {
      const geometry::Rect& box = bounds[static_cast<std::size_t>(b)].box;
      cx = std::clamp(cx, box.left(), box.right());
      cy = std::clamp(cy, box.bottom(), box.top());
    }
    node.position = {
        geometry::fit_interval(cx - node.width / 2.0, node.width,
                               region.left(), region.right()),
        geometry::fit_interval(cy - node.height / 2.0, node.height,
                               region.bottom(), region.top())};
  }
  return result;
}

}  // namespace mp::qp
