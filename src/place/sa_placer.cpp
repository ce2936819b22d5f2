#include "place/detail.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace mp::place {

using netlist::Design;
using netlist::NetId;
using netlist::NodeId;

namespace {

// Cost model over movable macros: HPWL of macro-incident nets (other pins
// fixed at current positions) + overlap penalty.
class SaCost {
 public:
  SaCost(Design& design, double overlap_weight, std::size_t max_net_degree = 64)
      : design_(design), overlap_weight_(overlap_weight) {
    movable_ = design.movable_macros();
    local_of_.assign(design.num_nodes(), -1);
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      local_of_[static_cast<std::size_t>(movable_[i])] = static_cast<int>(i);
    }
    // Nets touching at least one movable macro.
    const auto& adjacency = design.node_nets();
    std::vector<bool> seen(design.num_nets(), false);
    for (NodeId m : movable_) {
      for (NetId n : adjacency[static_cast<std::size_t>(m)]) {
        if (seen[static_cast<std::size_t>(n)]) continue;
        seen[static_cast<std::size_t>(n)] = true;
        if (design.net(n).pins.size() <= max_net_degree) nets_.push_back(n);
      }
    }
    nets_of_macro_.assign(movable_.size(), {});
    for (std::size_t k = 0; k < nets_.size(); ++k) {
      for (const netlist::PinRef& pin : design.net(nets_[k]).pins) {
        const int local = local_of_[static_cast<std::size_t>(pin.node)];
        if (local >= 0) {
          auto& v = nets_of_macro_[static_cast<std::size_t>(local)];
          if (v.empty() || v.back() != k) v.push_back(k);
        }
      }
    }
    net_hpwl_.resize(nets_.size());
    for (std::size_t k = 0; k < nets_.size(); ++k) {
      net_hpwl_[k] = weighted_hpwl(k);
    }
    wirelength_ = 0.0;
    for (double h : net_hpwl_) wirelength_ += h;
    overlap_ = total_overlap();
  }

  const std::vector<NodeId>& movable() const { return movable_; }
  double cost() const { return wirelength_ + overlap_weight_ * overlap_; }
  double wirelength() const { return wirelength_; }
  double overlap() const { return overlap_; }
  void set_overlap_weight(double w) { overlap_weight_ = w; }

  /// Applies a position change and returns the cost delta.
  double move(std::size_t local, const geometry::Point& new_pos) {
    const double before = macro_cost(local);
    design_.node(movable_[local]).position = new_pos;
    return macro_cost_update(local) - before;
  }

  /// Swaps positions (centers aligned) of two macros; returns cost delta.
  double swap(std::size_t a, std::size_t b) {
    const double before = macro_cost(a) + macro_cost(b) - pair_overlap(a, b);
    netlist::Node& na = design_.node(movable_[a]);
    netlist::Node& nb = design_.node(movable_[b]);
    const geometry::Point ca = na.center();
    const geometry::Point cb = nb.center();
    na.position = {cb.x - na.width / 2.0, cb.y - na.height / 2.0};
    nb.position = {ca.x - nb.width / 2.0, ca.y - nb.height / 2.0};
    const double after =
        macro_cost_update(a) + macro_cost_update(b) - pair_overlap(a, b);
    return after - before;
  }

 private:
  double weighted_hpwl(std::size_t net_index) const {
    const NetId id = nets_[net_index];
    return design_.net(id).weight * design_.net_hpwl(id);
  }

  // Overlap of one macro with all other movables and all fixed macros.
  double macro_overlap(std::size_t local) const {
    const geometry::Rect r = design_.node(movable_[local]).rect();
    double total = 0.0;
    for (NodeId other : design_.macros()) {
      if (other == movable_[local]) continue;
      total += geometry::overlap_area(r, design_.node(other).rect());
    }
    return total;
  }

  double pair_overlap(std::size_t a, std::size_t b) const {
    return overlap_weight_ *
           geometry::overlap_area(design_.node(movable_[a]).rect(),
                                  design_.node(movable_[b]).rect());
  }

  double total_overlap() const {
    double total = 0.0;
    for (std::size_t i = 0; i < movable_.size(); ++i) {
      total += macro_overlap(i);
    }
    // Movable-movable pairs counted twice; fixed counted once per movable.
    // For the penalty this constant factor is irrelevant; keep as-is.
    return total;
  }

  // Cost contribution of one macro (its nets + its overlap).
  double macro_cost(std::size_t local) const {
    double c = 0.0;
    for (std::size_t k : nets_of_macro_[local]) c += net_hpwl_[k];
    return c + overlap_weight_ * macro_overlap(local);
  }

  // Same, but refreshes the cached net HPWLs and the aggregates.
  double macro_cost_update(std::size_t local) {
    double c = 0.0;
    for (std::size_t k : nets_of_macro_[local]) {
      const double fresh = weighted_hpwl(k);
      wirelength_ += fresh - net_hpwl_[k];
      net_hpwl_[k] = fresh;
      c += fresh;
    }
    return c + overlap_weight_ * macro_overlap(local);
  }

  Design& design_;
  double overlap_weight_;
  std::vector<NodeId> movable_;
  std::vector<int> local_of_;
  std::vector<NetId> nets_;
  std::vector<std::vector<std::size_t>> nets_of_macro_;
  std::vector<double> net_hpwl_;
  double wirelength_ = 0.0;
  double overlap_ = 0.0;
};

}  // namespace

namespace detail {

PlaceResult sa_place(Design& design, const SaOptions& options) {
  PlaceResult result;
  util::Rng rng(options.seed);

  gp::global_place(design, options.initial_gp);

  const std::vector<NodeId> movable = design.movable_macros();
  if (movable.empty()) {
    result.hpwl = place_cells_and_measure(design, options.final_gp);
    return result;
  }

  SaCost cost(design, 1.0);
  // Auto overlap weight: make a full-macro overlap comparable to the whole
  // macro wirelength.
  double overlap_weight = options.overlap_weight;
  if (overlap_weight < 0.0) {
    double macro_area = 0.0;
    for (NodeId id : movable) macro_area += design.node(id).area();
    overlap_weight = std::max(1e-6, 2.0 * cost.wirelength() / std::max(1.0, macro_area));
  }
  cost.set_overlap_weight(overlap_weight);

  const geometry::Rect region = design.region();
  const auto clamp_pos = [&](NodeId id, geometry::Point p) {
    const netlist::Node& node = design.node(id);
    p.x = std::clamp(p.x, region.left(),
                     std::max(region.left(), region.right() - node.width));
    p.y = std::clamp(p.y, region.bottom(),
                     std::max(region.bottom(), region.top() - node.height));
    return p;
  };

  // Temperature calibration from sampled random-move deltas.
  double avg_uphill = 0.0;
  {
    int uphill = 0;
    for (int s = 0; s < 50; ++s) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(movable.size()) - 1));
      const geometry::Point old_pos = design.node(movable[i]).position;
      const geometry::Point candidate = clamp_pos(
          movable[i], {old_pos.x + rng.normal(0.0, region.w * 0.1),
                       old_pos.y + rng.normal(0.0, region.h * 0.1)});
      const double delta = cost.move(i, candidate);
      if (delta > 0.0) {
        avg_uphill += delta;
        ++uphill;
      }
      cost.move(i, old_pos);  // undo
    }
    avg_uphill = (uphill > 0) ? avg_uphill / uphill : 1.0;
  }
  double temperature =
      -avg_uphill / std::log(std::max(1e-6, options.initial_acceptance));

  long long accepted = 0;
  const double initial_range = 0.25;
  for (int iter = 0; iter < options.iterations; ++iter) {
    const double progress = static_cast<double>(iter) / options.iterations;
    const double range = initial_range * (1.0 - 0.9 * progress);

    double delta = 0.0;
    // Proposal.
    if (movable.size() >= 2 && rng.bernoulli(options.swap_probability)) {
      std::size_t a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(movable.size()) - 1));
      std::size_t b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(movable.size()) - 1));
      if (a == b) b = (b + 1) % movable.size();
      delta = cost.swap(a, b);
      if (delta > 0.0 && !rng.bernoulli(std::exp(-delta / temperature))) {
        cost.swap(a, b);  // reject: swap back
      } else {
        ++accepted;
      }
    } else {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(movable.size()) - 1));
      const geometry::Point old_pos = design.node(movable[i]).position;
      const geometry::Point candidate = clamp_pos(
          movable[i], {old_pos.x + rng.normal(0.0, region.w * range),
                       old_pos.y + rng.normal(0.0, region.h * range)});
      delta = cost.move(i, candidate);
      if (delta > 0.0 && !rng.bernoulli(std::exp(-delta / temperature))) {
        cost.move(i, old_pos);  // reject
      } else {
        ++accepted;
      }
    }
    if ((iter + 1) % options.batch == 0) temperature *= options.cooling;
  }
  result.sa_accept_ratio =
      static_cast<double>(accepted) / std::max(1, options.iterations);
  result.sa_final_cost = cost.cost();

  legal::legalize_flat(design, options.legalize);
  result.hpwl = place_cells_and_measure(design, options.final_gp);
  util::log_info() << "sa_place: hpwl=" << result.hpwl
                   << " accept=" << result.sa_accept_ratio;
  return result;
}

}  // namespace detail

}  // namespace mp::place
