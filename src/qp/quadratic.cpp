#include "qp/quadratic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "check/check.hpp"
#include "obs/obs.hpp"

namespace mp::qp {

using netlist::Design;
using netlist::Net;
using netlist::NodeId;
using netlist::PinRef;

namespace {

// Stamps quadratic terms into the one matrix both axes share and into the
// x and y right-hand sides of A z = b (movable variables, then star ones).
struct Stamper {
  linalg::TripletBuilder& triplets;
  linalg::Vec& rhs_x;
  linalg::Vec& rhs_y;

  // Quadratic term w * (z_i + o_i - z_j - o_j)^2 between two variables.
  void connect_vars(std::size_t i, std::size_t j, geometry::Point o_i,
                    geometry::Point o_j, double w) {
    if (i == j) return;
    triplets.add_connection(i, j, w);
    rhs_x[i] += w * (o_j.x - o_i.x);
    rhs_x[j] += w * (o_i.x - o_j.x);
    rhs_y[i] += w * (o_j.y - o_i.y);
    rhs_y[j] += w * (o_i.y - o_j.y);
  }

  // Quadratic term w * (z_i + o_i - c)^2 against a fixed point c.
  void connect_fixed(std::size_t i, geometry::Point o_i, geometry::Point c,
                     double w) {
    triplets.add_diagonal(i, w);
    rhs_x[i] += w * (c.x - o_i.x);
    rhs_y[i] += w * (c.y - o_i.y);
  }
};

bool net_in_model(const Net& net, const QpOptions& options) {
  const int degree = static_cast<int>(net.pins.size());
  return degree >= 2 && degree <= options.max_net_degree;
}

}  // namespace

QuadraticSystem::QuadraticSystem(Design& design, std::vector<NodeId> movable,
                                 const QpOptions& options)
    : design_(design), movable_(std::move(movable)), options_(options) {
  if (movable_.empty()) return;
  // Variable mapping: movable nodes first, star variables appended later.
  var_of_node_.assign(design.num_nodes(), -1);
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    var_of_node_[static_cast<std::size_t>(movable_[i])] = static_cast<int>(i);
  }

  // Count star variables.
  std::size_t num_star = 0;
  for (const Net& net : design.nets()) {
    if (net_in_model(net, options_) &&
        static_cast<int>(net.pins.size()) > options_.clique_max_degree) {
      ++num_star;
    }
  }
  num_vars_ = movable_.size() + num_star;
  triplets_ = linalg::TripletBuilder(num_vars_);
  rhs_x_.assign(num_vars_, 0.0);
  rhs_y_.assign(num_vars_, 0.0);
  Stamper stamp{triplets_, rhs_x_, rhs_y_};

  // One pin's variable (-1 when fixed), its offset from the node *center*
  // (the variable), and its absolute location when fixed.
  struct PinInfo {
    int var;
    geometry::Point offset;
    geometry::Point fixed;
  };
  const auto pin_info = [&](const PinRef& pin) {
    const netlist::Node& node = design.node(pin.node);
    return PinInfo{var_of_node_[static_cast<std::size_t>(pin.node)],
                   {pin.dx - node.width / 2.0, pin.dy - node.height / 2.0},
                   design.pin_position(pin)};
  };

  std::size_t next_star = movable_.size();
  for (const Net& net : design.nets()) {
    if (!net_in_model(net, options_)) continue;
    const int degree = static_cast<int>(net.pins.size());

    if (degree <= options_.clique_max_degree) {
      const double w = net.weight / static_cast<double>(degree - 1);
      for (int a = 0; a < degree; ++a) {
        const PinInfo pa = pin_info(net.pins[static_cast<std::size_t>(a)]);
        for (int b = a + 1; b < degree; ++b) {
          const PinInfo pb = pin_info(net.pins[static_cast<std::size_t>(b)]);
          if (pa.var >= 0 && pb.var >= 0) {
            stamp.connect_vars(static_cast<std::size_t>(pa.var),
                               static_cast<std::size_t>(pb.var), pa.offset,
                               pb.offset, w);
          } else if (pa.var >= 0) {
            stamp.connect_fixed(static_cast<std::size_t>(pa.var), pa.offset,
                                pb.fixed, w);
          } else if (pb.var >= 0) {
            stamp.connect_fixed(static_cast<std::size_t>(pb.var), pb.offset,
                                pa.fixed, w);
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
      for (const PinRef& pin : net.pins) {
        const PinInfo p = pin_info(pin);
        if (p.var >= 0) {
          stamp.connect_vars(static_cast<std::size_t>(p.var), star, p.offset,
                             {0.0, 0.0}, w);
        } else {
          stamp.connect_fixed(star, {0.0, 0.0}, p.fixed, w);
        }
      }
    }
  }
  net_triplets_ = triplets_.size();

  net_diagonal_.assign(num_vars_, 0.0);
  for (std::size_t k = 0; k < net_triplets_; ++k) {
    const std::size_t row = triplets_.rows()[k];
    if (row == triplets_.cols()[k]) net_diagonal_[row] += triplets_.values()[k];
  }
}

QpResult QuadraticSystem::solve(const std::vector<Anchor>& anchors,
                                const std::vector<BoxBound>& bounds) {
  return solve_with(anchors, bounds, &order_);
}

QpResult solve_quadratic_placement(Design& design,
                                   const std::vector<NodeId>& movable,
                                   const std::vector<Anchor>& anchors,
                                   const std::vector<BoxBound>& bounds,
                                   const QpOptions& options) {
  return QuadraticSystem(design, movable, options)
      .solve_with(anchors, bounds, nullptr);
}

QpResult QuadraticSystem::solve_with(const std::vector<Anchor>& anchors,
                                     const std::vector<BoxBound>& bounds,
                                     linalg::TripletOrder* reuse) {
  if (movable_.empty()) return {};
  linalg::Vec rhs_x = rhs_x_, rhs_y = rhs_y_, diagonal = net_diagonal_;
  Stamper stamp{triplets_, rhs_x, rhs_y};

  // Anchors, after the net terms.
  for (const Anchor& anchor : anchors) {
    const int var = var_of_node_[static_cast<std::size_t>(anchor.node)];
    assert(var >= 0 && "anchor on non-movable node");
    stamp.connect_fixed(static_cast<std::size_t>(var), {0.0, 0.0},
                        anchor.target, anchor.weight);
    diagonal[static_cast<std::size_t>(var)] += anchor.weight;
  }

  // Regularize isolated variables (no net, no anchor: an empty diagonal)
  // toward the region center so the system stays SPD.
  const geometry::Point region_center = design_.region().center();
  for (std::size_t i = 0; i < num_vars_; ++i) {
    if (diagonal[i] <= 0.0) {
      stamp.connect_fixed(i, {0.0, 0.0}, region_center, 1e-6);
    }
  }

  const long long sorts_before = reuse != nullptr ? reuse->sorts : 0;
  const linalg::CsrMatrix a = linalg::CsrMatrix::from_triplets(triplets_, reuse);
  const long long sorts = reuse != nullptr ? reuse->sorts - sorts_before : 1;
  triplets_.truncate(net_triplets_);

  // Warm start from current centers.
  linalg::Vec x(num_vars_, region_center.x), y(num_vars_, region_center.y);
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    const geometry::Point c = design_.node(movable_[i]).center();
    x[i] = c.x;
    y[i] = c.y;
  }

  QpResult result;
  result.cg_x = linalg::conjugate_gradient(a, rhs_x, x, options_.cg);
  result.cg_y = linalg::conjugate_gradient(a, rhs_y, y, options_.cg);
  // The CG layer certifies its own residuals; here guard the QP contract:
  // the coordinates written back into the design must be finite numbers.
  if (check::validate_level() >= 1) {
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      MP_CHECK(std::isfinite(x[i]) && std::isfinite(y[i]),
               "QP solution for node %d not finite (x=%g, y=%g)", movable_[i],
               x[i], y[i]);
    }
  }
  MP_OBS_COUNT("qp.solves", 1);
  MP_OBS_COUNT("qp.csr_sorts", sorts);
  MP_OBS_COUNT("qp.cg_iterations", result.cg_x.iterations + result.cg_y.iterations);
  MP_OBS_HIST("qp.cg_iterations_per_solve",
              static_cast<double>(result.cg_x.iterations + result.cg_y.iterations));

  // Write back (center -> lower-left), applying box bounds then the region
  // clamp.
  std::vector<int> bound_of_node(design_.num_nodes(), -1);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bound_of_node[static_cast<std::size_t>(bounds[i].node)] = static_cast<int>(i);
  }
  const geometry::Rect region = design_.region();
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    netlist::Node& node = design_.node(movable_[i]);
    double cx = x[i];
    double cy = y[i];
    const int b = bound_of_node[static_cast<std::size_t>(movable_[i])];
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
