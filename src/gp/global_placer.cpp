#include "gp/global_placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "gp/density.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "util/log.hpp"

namespace mp::gp {

using netlist::Design;
using netlist::NodeId;

namespace {

int auto_bins(std::size_t num_movable) {
  const int b = static_cast<int>(std::sqrt(static_cast<double>(num_movable)) / 2.0);
  return std::clamp(b, 8, 128);
}

// 1-D histogram-equalization remap along one axis.  `positions` are current
// centers along the axis, `areas` the node areas, `cap` the per-bin capacity
// along the slice, `lo` the slice origin and `step` the bin extent.  Returns
// target centers.  Cells keep their relative order.
std::vector<double> equalize_slice(const std::vector<double>& positions,
                                   const std::vector<double>& areas,
                                   std::vector<double> cap, double lo,
                                   double step) {
  const std::size_t n = positions.size();
  std::vector<double> targets(n, 0.0);
  if (n == 0) return targets;

  double total_area = 0.0;
  for (double a : areas) total_area += a;
  double total_cap = 0.0;
  for (double c : cap) total_cap += c;
  if (total_cap <= 0.0) {
    // Nothing fits anywhere; spread uniformly over the slice.
    for (std::size_t i = 0; i < n; ++i) {
      targets[i] = lo + step * static_cast<double>(cap.size()) *
                            (static_cast<double>(i) + 0.5) /
                            static_cast<double>(n);
    }
    return targets;
  }
  if (total_area > total_cap) {
    const double scale = total_area / total_cap;
    for (double& c : cap) c *= scale;
    total_cap = total_area;
  }

  // Sort by current position.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return positions[a] < positions[b]; });

  // Prefix capacity.
  std::vector<double> prefix(cap.size() + 1, 0.0);
  for (std::size_t j = 0; j < cap.size(); ++j) prefix[j + 1] = prefix[j] + cap[j];

  // Keep the packed cell train centered on the capacity profile rather than
  // packed to the low end: offset by half the slack.
  const double slack = std::max(0.0, total_cap - total_area);
  double cum = slack / 2.0;
  std::size_t j = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = order[k];
    const double mid = cum + areas[i] / 2.0;
    while (j + 1 < prefix.size() - 0 && prefix[j + 1] < mid) ++j;
    if (j >= cap.size()) j = cap.size() - 1;
    const double within = (cap[j] > 0.0) ? (mid - prefix[j]) / cap[j] : 0.5;
    targets[i] = lo + (static_cast<double>(j) + std::clamp(within, 0.0, 1.0)) * step;
    cum += areas[i];
  }
  return targets;
}

// One density pass over the whole design: every non-pad node's rect, with
// its movable/fixed role, accumulated through DensityGrid::add_all (which
// parallelizes across bin rows deterministically).
DensityGrid build_density_grid(const Design& design,
                               const std::vector<bool>& is_movable,
                               const geometry::Rect& region, int bins,
                               double target_density) {
  DensityGrid grid(region, bins, target_density);
  std::vector<geometry::Rect> rects;
  std::vector<unsigned char> movable;
  rects.reserve(design.num_nodes());
  movable.reserve(design.num_nodes());
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    const netlist::Node& node = design.node(static_cast<NodeId>(i));
    if (node.kind == netlist::NodeKind::kPad) continue;
    rects.push_back(node.rect());
    movable.push_back(is_movable[i] ? 1 : 0);
  }
  grid.add_all(rects, movable);
  return grid;
}

}  // namespace

GlobalPlaceResult global_place(Design& design, const GlobalPlaceOptions& options) {
  MP_OBS_SPAN("gp.global_place");
  MP_OBS_COUNT("gp.invocations", 1);
  MP_OBS_HIST("gp.hpwl_before", design.total_hpwl());
  GlobalPlaceResult result;

  // Movable set.
  std::vector<NodeId> movable = design.std_cells();
  if (options.move_macros) {
    const auto& mm = design.movable_macros();
    movable.insert(movable.end(), mm.begin(), mm.end());
  }
  if (movable.empty()) {
    result.hpwl = design.total_hpwl();
    return result;
  }

  const int bins = options.bins > 0 ? options.bins : auto_bins(movable.size());
  const geometry::Rect region = design.region();

  // The net terms are assembled once; every solve below reuses them, and
  // the anchored solves, which share one key sequence, share one sort.
  qp::QuadraticSystem system(design, movable, options.qp);

  // Initial unconstrained QP.
  system.solve();

  // Fixed obstacles for capacity: fixed macros always; movable macros too
  // when they are not part of the movable set.
  std::vector<bool> is_movable(design.num_nodes(), false);
  for (NodeId id : movable) is_movable[static_cast<std::size_t>(id)] = true;

  double anchor_weight = options.anchor_weight;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (options.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    MP_OBS_COUNT("gp.spreading_passes", 1);
    DensityGrid grid = build_density_grid(design, is_movable, region, bins,
                                          options.target_density);
    result.overflow_ratio = grid.overflow_ratio();
    result.iterations = iter;
    if (result.overflow_ratio < options.overflow_target) break;

    // --- X pass: per bin-row remap ---
    std::vector<geometry::Point> targets(movable.size());
    for (std::size_t i = 0; i < movable.size(); ++i) {
      targets[i] = design.node(movable[i]).center();
    }
    {
      std::vector<std::vector<std::size_t>> rows(static_cast<std::size_t>(bins));
      for (std::size_t i = 0; i < movable.size(); ++i) {
        rows[static_cast<std::size_t>(grid.bin_y_of(targets[i].y))].push_back(i);
      }
      // Rows are independent slices writing disjoint targets — parallel
      // execution is bit-identical to the serial loop.
      par::parallel_for(0, static_cast<std::size_t>(bins), 1,
                        [&](std::size_t lo, std::size_t hi) {
        for (std::size_t by = lo; by < hi; ++by) {
          const auto& members = rows[by];
          if (members.empty()) continue;
          std::vector<double> pos, area, cap;
          pos.reserve(members.size());
          area.reserve(members.size());
          for (std::size_t i : members) {
            pos.push_back(targets[i].x);
            area.push_back(design.node(movable[i]).area());
          }
          cap.reserve(static_cast<std::size_t>(bins));
          for (int bx = 0; bx < bins; ++bx) {
            cap.push_back(grid.capacity(bx, static_cast<int>(by)));
          }
          const std::vector<double> remapped =
              equalize_slice(pos, area, cap, region.x, grid.bin_width());
          for (std::size_t k = 0; k < members.size(); ++k) {
            targets[members[k]].x = remapped[k];
          }
        }
      });
    }
    // --- Y pass: per bin-column remap (on x-updated bin assignment) ---
    {
      std::vector<std::vector<std::size_t>> cols(static_cast<std::size_t>(bins));
      for (std::size_t i = 0; i < movable.size(); ++i) {
        cols[static_cast<std::size_t>(grid.bin_x_of(targets[i].x))].push_back(i);
      }
      par::parallel_for(0, static_cast<std::size_t>(bins), 1,
                        [&](std::size_t lo, std::size_t hi) {
        for (std::size_t bx = lo; bx < hi; ++bx) {
          const auto& members = cols[bx];
          if (members.empty()) continue;
          std::vector<double> pos, area, cap;
          pos.reserve(members.size());
          area.reserve(members.size());
          for (std::size_t i : members) {
            pos.push_back(targets[i].y);
            area.push_back(design.node(movable[i]).area());
          }
          cap.reserve(static_cast<std::size_t>(bins));
          for (int by = 0; by < bins; ++by) {
            cap.push_back(grid.capacity(static_cast<int>(bx), by));
          }
          const std::vector<double> remapped =
              equalize_slice(pos, area, cap, region.y, grid.bin_height());
          for (std::size_t k = 0; k < members.size(); ++k) {
            targets[members[k]].y = remapped[k];
          }
        }
      });
    }

    // Anchored QP pulls the wirelength solution toward the spread targets.
    std::vector<qp::Anchor> anchors;
    anchors.reserve(movable.size());
    for (std::size_t i = 0; i < movable.size(); ++i) {
      anchors.push_back({movable[i], targets[i], anchor_weight});
    }
    system.solve(anchors);
    anchor_weight *= options.anchor_growth;
  }

  // Final density snapshot for reporting.
  {
    DensityGrid grid = build_density_grid(design, is_movable, region, bins,
                                          options.target_density);
    result.overflow_ratio = grid.overflow_ratio();
  }
  result.hpwl = design.total_hpwl();
  MP_OBS_HIST("gp.hpwl_after", result.hpwl);
  MP_OBS_GAUGE("gp.overflow_ratio", result.overflow_ratio);
  // Stage boundary: spreading + anchored QP must hand back finite positions
  // and a meaningful density summary, whatever the solver did internally.
  check::validate_positions_finite(design, "gp.global_place");
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(result.hpwl, "GP result HPWL");
    MP_CHECK_GE(result.hpwl, 0.0, "GP result HPWL");
    MP_CHECK_FINITE(result.overflow_ratio, "GP overflow ratio");
    MP_CHECK_GE(result.overflow_ratio, 0.0, "GP overflow ratio");
  }
  util::log_debug() << "global_place: hpwl=" << result.hpwl
                    << " overflow=" << result.overflow_ratio
                    << " iters=" << result.iterations;
  return result;
}

}  // namespace mp::gp
