// The regulate preset's own stages around the shared train-then-search
// routine: the trust-region set-up and the finalize that keeps the HPWL at
// or below the legal input's (RegulateOptions, place/placer.hpp).  Results
// are deterministic: bit-identical across eval_batch settings and across
// thread counts, one thread included, same as every other preset.

#include <algorithm>
#include <optional>
#include <utility>

#include "check/check.hpp"
#include "obs/obs.hpp"
#include "place/detail.hpp"
#include "util/log.hpp"

namespace mp::place {

namespace {

// Sum of weighted coarse-net HPWL incident to a group node — the "tension"
// that ranks which groups are worth moving when max_moves caps the budget.
double group_tension(const cluster::CoarseDesign& coarse,
                     netlist::NodeId group_node) {
  double tension = 0.0;
  const auto& node_nets = coarse.design.node_nets();
  for (netlist::NetId net :
       node_nets[static_cast<std::size_t>(group_node)]) {
    tension += coarse.design.net(net).weight * coarse.design.net_hpwl(net);
  }
  return tension;
}

}  // namespace

namespace detail {

void regulate_place(netlist::Design& design, FlowContext& context,
                    const RlFlowOptions& options,
                    const RegulateOptions& regulate, PlaceResult& result) {
  const cluster::Clustering& clustering = context.clustering;
  const grid::GridSpec& spec = context.spec;
  const std::size_t num_groups = clustering.macro_groups.size();
  result.input_hpwl = design.total_hpwl();
  MP_OBS_GAUGE("regulate.input_hpwl", result.input_hpwl);

  // --- Legal baseline -----------------------------------------------------
  // The netlist delta behind an ECO job (resized/added macros) may have made
  // the incoming placement slightly illegal; restore legality first so the
  // fallback below can always return a legal design.  legalize_flat only
  // processes overlap components, so a legal input passes through untouched.
  const double area_scale = std::max(1.0, design.region().area());
  if (design.macro_overlap_area() / area_scale > 1e-9 ||
      !design.all_inside_region()) {
    MP_OBS_SPAN("regulate.input_legalize");
    legal::legalize_flat(design, options.flow.legalize);
  }
  const double baseline_hpwl = design.total_hpwl();
  const std::vector<geometry::Point> snapshot = positions_of(design);

  // --- Trust region -------------------------------------------------------
  // The incumbent anchors guide the search: its first seed line, and the
  // prior bias on the scale of the trust region (the whole action space
  // spans ~radius cells).
  SearchPlan plan;
  const std::vector<grid::CellCoord>& incumbent = plan.guide;
  for (const cluster::Group& group : clustering.macro_groups) {
    plan.guide.push_back(group_anchor(spec, group));
    plan.targets.push_back(spec.cell_rect(plan.guide.back()).center());
  }
  const int radius = std::max(0, regulate.radius);
  plan.temperature =
      std::max(1, radius) * 0.5 * (spec.cell_width() + spec.cell_height());

  std::vector<char> frozen(num_groups, 0);
  for (const std::string& name : regulate.frozen) {
    const std::optional<netlist::NodeId> id = design.find_node(name);
    int g = -1;
    if (id.has_value()) {
      g = clustering.macro_group_of[static_cast<std::size_t>(*id)];
    }
    if (g < 0) {
      util::log_warn() << "regulate: frozen name \"" << name
                       << "\" is not a movable macro; ignoring";
      continue;
    }
    frozen[static_cast<std::size_t>(g)] = 1;
  }
  if (regulate.max_moves > 0) {
    // Rank the still-movable groups by tension (ties by index, so the
    // ordering — and therefore the result — is deterministic) and freeze
    // everything below the top max_moves.
    std::vector<int> movable;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (frozen[g] == 0) movable.push_back(static_cast<int>(g));
    }
    if (static_cast<int>(movable.size()) > regulate.max_moves) {
      std::vector<double> tension(num_groups, 0.0);
      for (int g : movable) {
        tension[static_cast<std::size_t>(g)] = group_tension(
            context.coarse,
            context.coarse.macro_group_nodes[static_cast<std::size_t>(g)]);
      }
      std::sort(movable.begin(), movable.end(), [&](int a, int b) {
        const double ta = tension[static_cast<std::size_t>(a)];
        const double tb = tension[static_cast<std::size_t>(b)];
        if (ta != tb) return ta > tb;
        return a < b;
      });
      for (std::size_t k = static_cast<std::size_t>(regulate.max_moves);
           k < movable.size(); ++k) {
        frozen[static_cast<std::size_t>(movable[k])] = 1;
      }
    }
  }
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (frozen[g] != 0) ++result.frozen_groups;
  }
  MP_OBS_GAUGE("regulate.frozen_groups",
               static_cast<double>(result.frozen_groups));

  auto mask = std::make_shared<rl::ActionMask>(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const cluster::Group& group = clustering.macro_groups[g];
    const grid::CellCoord fp =
        spec.footprint_cells(group.width, group.height);
    const grid::CellCoord inc = incumbent[g];
    std::vector<int>& cells = (*mask)[g];
    if (frozen[g] != 0) {
      cells.push_back(spec.flat_index(inc));
      continue;
    }
    // gy-major, gx-minor iteration emits flat indices already sorted.
    for (int gy = std::max(0, inc.gy - radius);
         gy <= std::min(spec.dim() - fp.gy, inc.gy + radius); ++gy) {
      for (int gx = std::max(0, inc.gx - radius);
           gx <= std::min(spec.dim() - fp.gx, inc.gx + radius); ++gx) {
        cells.push_back(spec.flat_index({gx, gy}));
      }
    }
    if (cells.empty()) cells.push_back(spec.flat_index(inc));
  }
  plan.mask = std::move(mask);

  // --- Fine-tune + trust-region MCTS ---------------------------------------
  const std::vector<grid::CellCoord> anchors =
      train_then_search(options, context, plan, result);

  // --- Touched-region re-legalization + HPWL guarantee ---------------------
  // An allocation left incomplete by a cancel moves nothing: the legal
  // input is the result.
  std::vector<std::size_t> moved;
  if (anchors.size() == num_groups) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (!(anchors[g] == incumbent[g])) moved.push_back(g);
    }
  }
  result.moved_groups = static_cast<int>(moved.size());
  MP_OBS_GAUGE("regulate.moved_groups",
               static_cast<double>(result.moved_groups));

  double hpwl = baseline_hpwl;
  if (!moved.empty()) {
    // Unlike the from-scratch flows there is no cell re-placement here: the
    // standard cells are part of the incumbent and keep their exact input
    // coordinates, so the realized HPWL is directly comparable to the legal
    // baseline (re-running the cell GP would wipe a converged incumbent
    // cell placement and almost always lose).
    const auto translate_group = [&](std::size_t g) {
      const geometry::Point from = spec.cell_origin(incumbent[g]);
      const geometry::Point to = spec.cell_origin(anchors[g]);
      const double dx = to.x - from.x;
      const double dy = to.y - from.y;
      for (netlist::NodeId m : clustering.macro_groups[g].members) {
        netlist::Node& node = design.node(m);
        node.position = {node.position.x + dx, node.position.y + dy};
      }
    };

    // Candidate 1: the search's full rearrangement.  Translate the members
    // of each moved group by its anchor delta, then legalize: legalize_flat
    // only adjusts overlap components, so macros away from the touched
    // region keep their exact input coordinates.
    {
      MP_OBS_SPAN("regulate.legalize");
      for (std::size_t g : moved) translate_group(g);
      legal::legalize_flat(design, options.flow.legalize);
    }
    hpwl = design.total_hpwl();
    if (!(hpwl < baseline_hpwl)) {
      // The joint rearrangement did not survive legalization (the coarse
      // model over-promised).  Fall back to a greedy per-group pass: apply
      // each nudge on its own, in deterministic group order, and keep only
      // the ones that improve the realized HPWL — regulate's contract
      // (HPWL <= the legal input) holds because every accepted step
      // strictly improves and the empty acceptance set is the input itself.
      MP_OBS_COUNT("regulate.rollbacks", 1);
      restore_positions(design, snapshot);
      hpwl = baseline_hpwl;
      std::vector<geometry::Point> accepted = snapshot;
      std::vector<std::size_t> kept;
      for (std::size_t g : moved) {
        translate_group(g);
        legal::legalize_flat(design, options.flow.legalize);
        const double h = design.total_hpwl();
        if (h < hpwl) {
          hpwl = h;
          kept.push_back(g);
          accepted = positions_of(design);
        } else {
          restore_positions(design, accepted);
        }
      }
      moved = std::move(kept);
      result.moved_groups = static_cast<int>(moved.size());
      MP_OBS_GAUGE("regulate.moved_groups",
                   static_cast<double>(result.moved_groups));
    }
  }
  result.hpwl = hpwl;
  result.finalized = true;
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(result.hpwl, "regulate final HPWL");
    MP_CHECK_LE(result.hpwl, baseline_hpwl + 1e-9 * (1.0 + baseline_hpwl),
                "regulate HPWL exceeds the legal input baseline");
  }
  util::log_info() << "regulate_place: hpwl=" << result.hpwl << " (input "
                   << result.input_hpwl << ", " << result.moved_groups << "/"
                   << result.macro_groups << " groups moved, "
                   << result.frozen_groups << " frozen, train "
                   << result.train_seconds << "s, mcts "
                   << result.mcts_seconds << "s)"
                   << (result.cancelled ? " [cancelled]" : "");
}

}  // namespace detail

}  // namespace mp::place
