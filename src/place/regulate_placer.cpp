#include "place/regulate_placer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "check/check.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mp::place {

namespace {

// One token cancels the whole flow (same contract as the mcts preset).
RegulateOptions propagate_cancel(const RegulateOptions& options) {
  if (!options.cancel.valid()) return options;
  RegulateOptions o = options;
  o.flow.cancel = o.cancel;
  o.train.cancel = o.cancel;
  o.mcts.cancel = o.cancel;
  return o;
}

// Incumbent grid anchor of a group: the cell of its lower-left corner as
// implied by the (area-weighted) member centroid, clamped so the footprint
// stays on-chip — the same derivation the analytic guidance of the mcts
// preset uses, so a regulate run on an mcts result starts from the anchors
// that flow committed.
grid::CellCoord incumbent_anchor(const grid::GridSpec& spec,
                                 const cluster::Group& group) {
  const grid::CellCoord fp = spec.footprint_cells(group.width, group.height);
  grid::CellCoord c = spec.cell_of({group.centroid.x - group.width / 2.0,
                                    group.centroid.y - group.height / 2.0});
  c.gx = std::max(0, std::min(c.gx, spec.dim() - fp.gx));
  c.gy = std::max(0, std::min(c.gy, spec.dim() - fp.gy));
  return c;
}

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

RegulateResult regulate_from_context(netlist::Design& design,
                                     FlowContext& context,
                                     const RegulateOptions& options) {
  RegulateResult result;
  util::Timer total_timer;
  const cluster::Clustering& clustering = context.clustering;
  const grid::GridSpec& spec = context.spec;
  const std::size_t num_groups = clustering.macro_groups.size();
  result.macro_groups = static_cast<int>(num_groups);
  result.cell_groups = static_cast<int>(clustering.cell_groups.size());
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
  std::vector<geometry::Point> snapshot;
  snapshot.reserve(design.num_nodes());
  for (std::size_t i = 0; i < design.num_nodes(); ++i) {
    snapshot.push_back(design.node(static_cast<netlist::NodeId>(i)).position);
  }

  // --- Trust region -------------------------------------------------------
  std::vector<grid::CellCoord> incumbent;
  incumbent.reserve(num_groups);
  for (const cluster::Group& group : clustering.macro_groups) {
    incumbent.push_back(incumbent_anchor(spec, group));
  }

  std::vector<char> frozen(num_groups, 0);
  for (const std::string& name : options.frozen) {
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
  if (options.max_moves > 0) {
    // Rank the still-movable groups by tension (ties by index, so the
    // ordering — and therefore the result — is deterministic) and freeze
    // everything below the top max_moves.
    std::vector<int> movable;
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (frozen[g] == 0) movable.push_back(static_cast<int>(g));
    }
    if (static_cast<int>(movable.size()) > options.max_moves) {
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
      for (std::size_t k = static_cast<std::size_t>(options.max_moves);
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

  const int radius = std::max(0, options.radius);
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

  // --- Fine-tune (short pre-training inside the trust region) -------------
  rl::AgentConfig agent_config = options.agent;
  agent_config.grid_dim = options.flow.grid_dim;
  rl::AgentNetwork agent(agent_config);
  if (!options.initial_parameters.empty()) {
    nn::restore_parameters(agent.parameters(), options.initial_parameters);
  }
  rl::PlacementEnv env(context.coarse, clustering, spec);
  env.set_allowed_actions(mask);
  rl::CoarseEvaluator evaluator(context.coarse, spec);

  util::Timer train_timer;
  {
    MP_OBS_SPAN("rl.train");
    result.train_result = rl::train_agent(env, evaluator, agent, options.train);
  }
  result.train_seconds = train_timer.seconds();
  if (result.train_result.cancelled) {
    result.cancelled = true;
    result.hpwl = baseline_hpwl;
    result.finalized = true;  // the legal input placement is untouched
    result.total_seconds = total_timer.seconds();
    util::log_info() << "regulate_place: cancelled during fine-tuning";
    return result;
  }

  // --- Trust-region MCTS ---------------------------------------------------
  rl::RewardFn reward = options.train.reward;
  if (!reward) {
    reward = result.train_result.calibration.make_reward(options.train.alpha);
  }
  mcts::MctsOptions mcts_options = options.mcts;
  mcts_options.auto_commit_forced = true;
  std::vector<int> incumbent_path;
  incumbent_path.reserve(num_groups);
  for (const grid::CellCoord& c : incumbent) {
    incumbent_path.push_back(spec.flat_index(c));
  }
  mcts_options.seed_paths.push_back(std::move(incumbent_path));
  if (!result.train_result.best_anchors.empty()) {
    std::vector<int> best_path;
    for (const grid::CellCoord& c : result.train_result.best_anchors) {
      best_path.push_back(spec.flat_index(c));
    }
    mcts_options.seed_paths.push_back(std::move(best_path));
  }
  // Prior bias toward the incumbent anchor, on the scale of the trust
  // region (the analytic-guidance bias uses 0.15 * chip width; here the
  // whole action space spans ~radius cells).
  {
    const double temperature = std::max(1, radius) * 0.5 *
                               (spec.cell_width() + spec.cell_height());
    const grid::GridSpec bias_spec = spec;
    std::vector<geometry::Point> targets;
    targets.reserve(num_groups);
    for (const grid::CellCoord& c : incumbent) {
      targets.push_back(bias_spec.cell_rect(c).center());
    }
    mcts_options.prior_bonus = [targets = std::move(targets), bias_spec,
                                temperature](int step, int action) {
      if (step < 0 || step >= static_cast<int>(targets.size())) return 1.0;
      const geometry::Point anchor =
          bias_spec.cell_rect(bias_spec.coord(action)).center();
      const double dist = geometry::manhattan(
          anchor, targets[static_cast<std::size_t>(step)]);
      return std::exp(-dist / temperature) + 1e-4;
    };
  }

  util::Timer mcts_timer;
  {
    MP_OBS_SPAN("mcts.search");
    mcts::MctsPlacer mcts_placer(env, evaluator, agent, reward, mcts_options);
    result.mcts_result = mcts_placer.run();
  }
  result.mcts_seconds = mcts_timer.seconds();
  result.coarse_wirelength = result.mcts_result.wirelength;
  result.cancelled = result.mcts_result.cancelled;

  // --- Touched-region re-legalization + HPWL guarantee ---------------------
  const bool complete =
      static_cast<int>(result.mcts_result.anchors.size()) ==
      result.macro_groups;
  std::vector<std::size_t> moved;
  if (complete) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      if (!(result.mcts_result.anchors[g] == incumbent[g])) moved.push_back(g);
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
      const geometry::Point to =
          spec.cell_origin(result.mcts_result.anchors[g]);
      const double dx = to.x - from.x;
      const double dy = to.y - from.y;
      for (netlist::NodeId m : clustering.macro_groups[g].members) {
        netlist::Node& node = design.node(m);
        node.position = {node.position.x + dx, node.position.y + dy};
      }
    };
    const auto capture = [&] {
      std::vector<geometry::Point> s;
      s.reserve(design.num_nodes());
      for (std::size_t i = 0; i < design.num_nodes(); ++i) {
        s.push_back(design.node(static_cast<netlist::NodeId>(i)).position);
      }
      return s;
    };
    const auto restore = [&](const std::vector<geometry::Point>& s) {
      for (std::size_t i = 0; i < design.num_nodes(); ++i) {
        design.node(static_cast<netlist::NodeId>(i)).position = s[i];
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
      restore(snapshot);
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
          accepted = capture();
        } else {
          restore(accepted);
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
  result.total_seconds = total_timer.seconds();
  util::log_info() << "regulate_place: hpwl=" << result.hpwl << " (input "
                   << result.input_hpwl << ", " << result.moved_groups << "/"
                   << result.macro_groups << " groups moved, "
                   << result.frozen_groups << " frozen, train "
                   << result.train_seconds << "s, mcts "
                   << result.mcts_seconds << "s)"
                   << (result.cancelled ? " [cancelled]" : "");
  MP_OBS_HIST("place.hpwl", result.hpwl);
  MP_OBS_GAUGE("place.coarse_wirelength", result.coarse_wirelength);
  MP_OBS_GAUGE("par.threads", static_cast<double>(par::current_threads()));
  return result;
}

}  // namespace

FlowContext prepare_regulate_flow(const netlist::Design& design,
                                  const FlowOptions& options) {
  MP_OBS_SPAN("flow.prepare_regulate");
  FlowContext context{
      grid::GridSpec(design.region(), options.grid_dim),
      {},
      {},
  };
  MP_OBS_SPAN("flow.clustering");
  context.clustering =
      cluster::cluster_design(design, context.spec, options.cluster);
  context.coarse = cluster::build_coarse_design(design, context.clustering);
  MP_OBS_GAUGE("flow.macro_groups",
               static_cast<double>(context.clustering.macro_groups.size()));
  MP_OBS_GAUGE("flow.cell_groups",
               static_cast<double>(context.clustering.cell_groups.size()));
  return context;
}

namespace detail {

RegulateResult regulate_place_prepared(netlist::Design& design,
                                       FlowContext& context,
                                       const RegulateOptions& options) {
  return regulate_from_context(design, context, propagate_cancel(options));
}

RegulateResult regulate_place(netlist::Design& design,
                              const RegulateOptions& options) {
  if (obs::enabled()) obs::reset_values();
  const RegulateOptions propagated = propagate_cancel(options);
  util::Timer total_timer;
  std::optional<obs::Span> run_span;
  run_span.emplace("regulate_place");

  FlowContext context = prepare_regulate_flow(design, propagated.flow);
  RegulateResult result;
  if (propagated.cancel.cancelled()) {
    result.cancelled = true;
    result.finalized = true;  // input placement untouched
    result.input_hpwl = design.total_hpwl();
    result.hpwl = result.input_hpwl;
    result.macro_groups =
        static_cast<int>(context.clustering.macro_groups.size());
    result.cell_groups =
        static_cast<int>(context.clustering.cell_groups.size());
    util::log_info() << "regulate_place: cancelled during preprocessing";
  } else {
    result = regulate_from_context(design, context, propagated);
  }
  result.total_seconds = total_timer.seconds();
  run_span.reset();
  obs::write_run_report("regulate_place");
  return result;
}

}  // namespace detail

}  // namespace mp::place
