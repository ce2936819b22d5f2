#include "place/placer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "place/detail.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mp::place {

namespace detail {

grid::CellCoord group_anchor(const grid::GridSpec& spec,
                             const cluster::Group& group) {
  const grid::CellCoord fp = spec.footprint_cells(group.width, group.height);
  grid::CellCoord c = spec.cell_of({group.centroid.x - group.width / 2.0,
                                    group.centroid.y - group.height / 2.0});
  c.gx = std::max(0, std::min(c.gx, spec.dim() - fp.gx));
  c.gy = std::max(0, std::min(c.gy, spec.dim() - fp.gy));
  return c;
}

std::vector<grid::CellCoord> train_then_search(const RlFlowOptions& options,
                                               FlowContext& context,
                                               const SearchPlan& plan,
                                               PlaceResult& result) {
  const grid::GridSpec& spec = context.spec;
  const cluster::Clustering& clustering = context.clustering;
  result.macro_groups = static_cast<int>(clustering.macro_groups.size());
  result.cell_groups = static_cast<int>(clustering.cell_groups.size());
  if (options.train.cancel.cancelled()) {  // cancelled while preparing
    result.cancelled = true;
    return {};
  }

  // --- RL pre-training (lines 3-10) ---
  rl::AgentConfig agent_config = options.agent;
  agent_config.grid_dim = options.flow.grid_dim;
  rl::AgentNetwork agent(agent_config);
  if (!options.initial_parameters.empty()) {
    nn::restore_parameters(agent.parameters(), options.initial_parameters);
  }
  rl::PlacementEnv env(context.coarse, clustering, spec);
  if (plan.mask) env.set_allowed_actions(plan.mask);
  rl::CoarseEvaluator evaluator(context.coarse, spec);

  util::Timer train_timer;
  {
    MP_OBS_SPAN("rl.train");
    result.train_result = rl::train_agent(env, evaluator, agent, options.train);
  }
  result.train_seconds = train_timer.seconds();
  const rl::TrainResult& trained = result.train_result;
  if (trained.cancelled) {
    result.cancelled = true;
    return {};
  }

  if (plan.greedy) {
    // Fall back to the best training-time allocation if the greedy rollout
    // is worse (CT also reports its best seen placement).
    std::vector<grid::CellCoord> anchors;
    result.coarse_wirelength =
        rl::play_greedy_episode(env, evaluator, agent, anchors);
    if (!trained.best_anchors.empty() &&
        trained.best_wirelength < result.coarse_wirelength) {
      anchors = trained.best_anchors;
      result.coarse_wirelength = trained.best_wirelength;
    }
    return anchors;
  }

  // --- MCTS placement optimization (lines 11-15) ---
  rl::RewardFn reward = options.train.reward;
  if (!reward) reward = trained.calibration.make_reward(options.train.alpha);
  mcts::MctsOptions mcts_options = options.mcts;
  if (plan.mask) mcts_options.auto_commit_forced = true;
  if (!plan.guide.empty()) {
    const auto path_of = [&spec](const std::vector<grid::CellCoord>& anchors) {
      std::vector<int> path;
      path.reserve(anchors.size());
      for (const grid::CellCoord& c : anchors) {
        path.push_back(spec.flat_index(c));
      }
      return path;
    };
    mcts_options.seed_paths.push_back(path_of(plan.guide));
    if (!trained.best_anchors.empty()) {
      mcts_options.seed_paths.push_back(path_of(trained.best_anchors));
    }
    mcts_options.prior_bonus = [targets = plan.targets, spec,
                                temperature = plan.temperature](int step,
                                                                int action) {
      if (step < 0 || step >= static_cast<int>(targets.size())) return 1.0;
      const geometry::Point anchor =
          spec.cell_rect(spec.coord(action)).center();
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
  return result.mcts_result.anchors;
}

}  // namespace detail

namespace {

// Root span and run-report label of a cold RL run; also tags its log line.
const char* run_label(Preset preset) {
  switch (preset) {
    case Preset::kRlOnly: return "rl_only_place";
    case Preset::kRegulate: return "regulate_place";
    default: return "mcts_rl_place";
  }
}

// The knob-derived part of one RL preset's options, for `episodes` of
// training (`min_window` and `min_calibration` floor the derived update
// window and calibration episode count).
void apply_knobs(RlFlowOptions& o, const PresetKnobs& knobs, int episodes,
                 int min_window, int min_calibration) {
  o.flow.grid_dim = knobs.grid;
  o.agent.channels = knobs.channels;
  o.agent.res_blocks = knobs.blocks;
  o.train.episodes = episodes;
  o.train.update_window = std::min(30, std::max(min_window, episodes / 6));
  o.train.calibration_episodes = std::max(min_calibration, episodes / 3);
  o.mcts.explorations_per_move = knobs.gamma;
  if (knobs.seed != 0) {
    o.train.seed = knobs.seed;
    o.mcts.seed = knobs.seed + 1;
  }
}

// mcts and rl_only: train, search (or play greedily), legalize, place cells.
void place_from_scratch(netlist::Design& design, FlowContext& context,
                        const PlacerSpec& spec, const RlFlowOptions& options,
                        PlaceResult& result) {
  detail::SearchPlan plan;
  plan.greedy = spec.preset == Preset::kRlOnly;
  if (!plan.greedy && spec.mcts_rl.analytic_guidance) {
    // Seed and bias the search with each group's position in the initial
    // analytical placement (the clustering centroids).
    for (const cluster::Group& group : context.clustering.macro_groups) {
      plan.guide.push_back(detail::group_anchor(context.spec, group));
      plan.targets.push_back(group.centroid);
    }
    plan.temperature = 0.15 * design.region().w;
  }
  const std::vector<grid::CellCoord> anchors =
      detail::train_then_search(options, context, plan, result);

  // --- Legalization + cell placement (line 16) ---
  // A cancelled search may still have found a complete allocation (best
  // terminal leaf, seed line); legalize it so the design ends legal even
  // then.  Only a run cancelled before a complete allocation existed skips
  // finalize — positions then remain at the (finite) initial placement.
  result.finalized =
      anchors.size() == static_cast<std::size_t>(result.macro_groups);
  if (result.finalized) {
    result.hpwl = finalize_placement(design, context, anchors, options.flow);
    result.cancelled = result.cancelled || options.flow.cancel.cancelled();
  }
  util::log_info() << run_label(spec.preset) << ": hpwl=" << result.hpwl
                   << " (" << result.macro_groups << " macro groups, train "
                   << result.train_seconds << "s, mcts "
                   << result.mcts_seconds << "s)"
                   << (result.cancelled ? " [cancelled]" : "");
}

// Algorithm 1 lines 3-16 for an RL preset on a prepared context.  Owns no
// telemetry window; `options` already carries the run's cancel token.
PlaceResult place_prepared(netlist::Design& design, FlowContext& context,
                           const PlacerSpec& spec,
                           const RlFlowOptions& options) {
  PlaceResult result;
  if (spec.preset == Preset::kRegulate) {
    detail::regulate_place(design, context, options, spec.regulate, result);
  } else {
    place_from_scratch(design, context, spec, options, result);
  }
  MP_OBS_HIST("place.hpwl", result.hpwl);
  MP_OBS_GAUGE("place.coarse_wirelength", result.coarse_wirelength);
  MP_OBS_GAUGE("par.threads", static_cast<double>(par::current_threads()));
  return result;
}

// The RL presets: cancel propagation, then either the warm path on a
// PreparedFlow or the one cold path that prepares the flow itself.
PlaceResult run_rl(netlist::Design& design, const PlacerSpec& spec,
                   PreparedFlow* prepared) {
  const bool regulate = spec.preset == Preset::kRegulate;
  // The run's one copy of the options: a valid top-level token cancels the
  // whole flow, whichever stage is running.
  RlFlowOptions options = regulate
                              ? static_cast<const RlFlowOptions&>(spec.regulate)
                              : static_cast<const RlFlowOptions&>(spec.mcts_rl);
  if (spec.cancel.valid()) {
    options.flow.cancel = spec.cancel;
    options.train.cancel = spec.cancel;
    options.mcts.cancel = spec.cancel;
  }
  if (prepared != nullptr) {
    return place_prepared(design, prepared->context, spec, options);
  }

  // A cold run owns one telemetry window: the registry is zeroed up front
  // and serialized as one JSONL line at the end (MP_OBS_OUT; no-op when
  // unset).
  if (obs::enabled()) obs::reset_values();
  const char* label = run_label(spec.preset);
  PlaceResult result;
  {
    obs::Span run_span(label);  // closes before the report is serialized
    // --- Preprocessing (Algorithm 1, lines 1-2) ---
    FlowContext context = regulate
                              ? prepare_regulate_flow(design, options.flow)
                              : prepare_flow(design, options.flow);
    result = place_prepared(design, context, spec, options);
  }
  obs::write_run_report(label);
  return result;
}

}  // namespace

// --- Unified placer API ---

const char* preset_name(Preset preset) {
  for (const PresetAlias& alias : preset_aliases()) {
    if (alias.preset == preset && alias.canonical) return alias.name;
  }
  return "mcts";
}

const std::vector<PresetAlias>& preset_aliases() {
  // The one accepted name set for every front end (CLI flags, JSON jobs,
  // mp_submit).  Canonical spelling first per preset; tests enumerate this
  // table, so extending it here is the whole change for a new alias.
  static const std::vector<PresetAlias> kAliases = {
      {"mcts", Preset::kMcts, true},
      {"ours", Preset::kMcts, false},
      {"rl_only", Preset::kRlOnly, true},
      {"rl", Preset::kRlOnly, false},
      {"sa", Preset::kSa, true},
      {"wiremask", Preset::kWiremask, true},
      {"analytic", Preset::kAnalytic, true},
      {"regulate", Preset::kRegulate, true},
      {"eco", Preset::kRegulate, false},
  };
  return kAliases;
}

bool parse_preset(const std::string& name, Preset& out) {
  for (const PresetAlias& alias : preset_aliases()) {
    if (name == alias.name) {
      out = alias.preset;
      return true;
    }
  }
  return false;
}

PlacerSpec spec_from_preset(Preset preset, const PresetKnobs& knobs) {
  PlacerSpec spec;
  spec.preset = preset;
  apply_knobs(spec.mcts_rl, knobs, knobs.episodes, 3, 5);
  // Regulate fine-tunes inside a trust region a fraction of the size of the
  // full action space, so it gets a fraction of the training budget — the
  // core of the regulator economy (runtime < from-scratch mcts at equal
  // knobs; see bench_eco).
  apply_knobs(spec.regulate, knobs, std::max(4, knobs.episodes / 3), 2, 3);
  spec.regulate.radius = knobs.regulate_radius;
  spec.regulate.max_moves = knobs.regulate_max_moves;
  spec.regulate.frozen = knobs.regulate_frozen;
  if (knobs.seed != 0) spec.sa.seed = knobs.seed;
  return spec;
}

PlaceResult run(netlist::Design& design, const PlacerSpec& spec,
                PreparedFlow* prepared) {
  util::Timer timer;
  PlaceResult result;
  // Baselines honor cancellation during their GP stages only; the core
  // annealer/greedy loops run to completion.
  switch (spec.preset) {
    case Preset::kSa: {
      SaOptions o = spec.sa;
      if (spec.cancel.valid()) o.initial_gp.cancel = spec.cancel;
      result = detail::sa_place(design, o);
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kWiremask: {
      WiremaskOptions o = spec.wiremask;
      if (spec.cancel.valid()) o.initial_gp.cancel = spec.cancel;
      result = detail::wiremask_place(design, o);
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kAnalytic: {
      AnalyticOptions o = spec.analytic;
      if (spec.cancel.valid()) o.mixed_gp.cancel = spec.cancel;
      result = detail::analytic_place(design, o);
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kMcts:
    case Preset::kRlOnly:
    case Preset::kRegulate:
      result = run_rl(design, spec, prepared);
      break;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mp::place
