#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "place/rl_only_placer.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mp::place {

namespace {

// A valid top-level token overrides the per-stage tokens, so one token
// cancels the whole flow regardless of which stage is running.
MctsRlOptions propagate_cancel(const MctsRlOptions& options) {
  if (!options.cancel.valid()) return options;
  MctsRlOptions o = options;
  o.flow.cancel = o.cancel;
  o.train.cancel = o.cancel;
  o.mcts.cancel = o.cancel;
  return o;
}

// Algorithm 1 lines 3-16 on a prepared context.  Owns no telemetry window;
// `options` must already have cancel propagated.
MctsRlResult place_from_context(netlist::Design& design, FlowContext& context,
                                const MctsRlOptions& options) {
  MctsRlResult result;
  util::Timer total_timer;
  result.macro_groups = static_cast<int>(context.clustering.macro_groups.size());
  result.cell_groups = static_cast<int>(context.clustering.cell_groups.size());

  // --- RL pre-training (lines 3-10) ---
  rl::AgentConfig agent_config = options.agent;
  agent_config.grid_dim = options.flow.grid_dim;
  rl::AgentNetwork agent(agent_config);
  if (!options.initial_parameters.empty()) {
    nn::restore_parameters(agent.parameters(), options.initial_parameters);
  }
  rl::PlacementEnv env(context.coarse, context.clustering, context.spec);
  rl::CoarseEvaluator evaluator(context.coarse, context.spec);

  util::Timer train_timer;
  {
    MP_OBS_SPAN("rl.train");
    result.train_result = rl::train_agent(env, evaluator, agent, options.train);
  }
  result.train_seconds = train_timer.seconds();
  if (result.train_result.cancelled) {
    result.cancelled = true;
    result.total_seconds = total_timer.seconds();
    util::log_info() << "mcts_rl_place: cancelled during pre-training";
    return result;
  }

  // --- MCTS placement optimization (lines 11-15) ---
  rl::RewardFn reward = options.train.reward;
  if (!reward) {
    reward = result.train_result.calibration.make_reward(options.train.alpha);
  }
  mcts::MctsOptions mcts_options = options.mcts;
  if (options.analytic_guidance) {
    // Anchor suggestion per group from the initial analytical placement
    // (the clustering centroids), clamped so the footprint stays on-chip.
    std::vector<int> analytic_path;
    std::vector<geometry::Point> targets;
    for (const cluster::Group& group : context.clustering.macro_groups) {
      const grid::CellCoord fp =
          context.spec.footprint_cells(group.width, group.height);
      grid::CellCoord c = context.spec.cell_of(
          {group.centroid.x - group.width / 2.0,
           group.centroid.y - group.height / 2.0});
      c.gx = std::min(c.gx, context.spec.dim() - fp.gx);
      c.gy = std::min(c.gy, context.spec.dim() - fp.gy);
      analytic_path.push_back(context.spec.flat_index(c));
      targets.push_back(group.centroid);
    }
    mcts_options.seed_paths.push_back(std::move(analytic_path));
    if (!result.train_result.best_anchors.empty()) {
      std::vector<int> best_path;
      for (const grid::CellCoord& c : result.train_result.best_anchors) {
        best_path.push_back(context.spec.flat_index(c));
      }
      mcts_options.seed_paths.push_back(std::move(best_path));
    }
    // Prior bias: prefer anchors near the group's analytical position.
    const double temperature = 0.15 * design.region().w;
    const grid::GridSpec spec = context.spec;
    mcts_options.prior_bonus = [targets, spec, temperature](int step,
                                                            int action) {
      if (step < 0 || step >= static_cast<int>(targets.size())) return 1.0;
      const geometry::Point anchor =
          spec.cell_rect(spec.coord(action)).center();
      const double dist = geometry::manhattan(anchor,
                                              targets[static_cast<std::size_t>(step)]);
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

  // --- Legalization + cell placement (line 16) ---
  // A cancelled search may still have found a complete allocation (best
  // terminal leaf, seed line); legalize it so the design ends legal even
  // then.  Only a cancelled search with an incomplete allocation skips
  // finalize — positions then remain at the (finite) initial placement.
  const bool complete_allocation =
      static_cast<int>(result.mcts_result.anchors.size()) ==
      result.macro_groups;
  if (complete_allocation) {
    result.hpwl = finalize_placement(design, context,
                                     result.mcts_result.anchors, options.flow);
    result.finalized = true;
  }
  result.total_seconds = total_timer.seconds();
  util::log_info() << "mcts_rl_place: hpwl=" << result.hpwl << " ("
                   << result.macro_groups << " macro groups, train "
                   << result.train_seconds << "s, mcts "
                   << result.mcts_seconds << "s)"
                   << (result.cancelled ? " [cancelled]" : "");
  MP_OBS_HIST("place.hpwl", result.hpwl);
  MP_OBS_GAUGE("place.coarse_wirelength", result.coarse_wirelength);
  MP_OBS_GAUGE("par.threads", static_cast<double>(par::current_threads()));
  return result;
}

}  // namespace

namespace detail {

MctsRlResult mcts_rl_place_prepared(netlist::Design& design,
                                    FlowContext& context,
                                    const MctsRlOptions& options) {
  return place_from_context(design, context, propagate_cancel(options));
}

MctsRlResult mcts_rl_place(netlist::Design& design,
                           const MctsRlOptions& options) {
  // Each run owns one telemetry window: the registry is zeroed up front and
  // serialized as one JSONL line at the end (MP_OBS_OUT; no-op when unset).
  if (obs::enabled()) obs::reset_values();
  const MctsRlOptions propagated = propagate_cancel(options);
  util::Timer total_timer;
  // optional<> so the root span can close before the report is serialized.
  std::optional<obs::Span> run_span;
  run_span.emplace("mcts_rl_place");

  // --- Preprocessing (Algorithm 1, lines 1-2) ---
  FlowContext context = prepare_flow(design, propagated.flow);
  MctsRlResult result;
  if (propagated.cancel.cancelled()) {
    result.cancelled = true;
    result.macro_groups =
        static_cast<int>(context.clustering.macro_groups.size());
    result.cell_groups = static_cast<int>(context.clustering.cell_groups.size());
    util::log_info() << "mcts_rl_place: cancelled during preprocessing";
  } else {
    result = place_from_context(design, context, propagated);
  }
  result.total_seconds = total_timer.seconds();
  run_span.reset();
  obs::write_run_report("mcts_rl_place");
  return result;
}

}  // namespace detail

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
  spec.mcts_rl.flow.grid_dim = knobs.grid;
  spec.mcts_rl.agent.channels = knobs.channels;
  spec.mcts_rl.agent.res_blocks = knobs.blocks;
  spec.mcts_rl.train.episodes = knobs.episodes;
  spec.mcts_rl.train.update_window =
      std::min(30, std::max(3, knobs.episodes / 6));
  spec.mcts_rl.train.calibration_episodes = std::max(5, knobs.episodes / 3);
  spec.mcts_rl.mcts.explorations_per_move = knobs.gamma;
  // Regulate fine-tunes inside a trust region a fraction of the size of the
  // full action space, so it gets a fraction of the training budget — the
  // core of the regulator economy (runtime < from-scratch mcts at equal
  // knobs; see bench_eco).
  const int regulate_episodes = std::max(4, knobs.episodes / 3);
  spec.regulate.flow.grid_dim = knobs.grid;
  spec.regulate.agent.channels = knobs.channels;
  spec.regulate.agent.res_blocks = knobs.blocks;
  spec.regulate.train.episodes = regulate_episodes;
  spec.regulate.train.update_window =
      std::min(30, std::max(2, regulate_episodes / 6));
  spec.regulate.train.calibration_episodes = std::max(3, regulate_episodes / 3);
  spec.regulate.mcts.explorations_per_move = knobs.gamma;
  spec.regulate.radius = knobs.regulate_radius;
  spec.regulate.max_moves = knobs.regulate_max_moves;
  spec.regulate.frozen = knobs.regulate_frozen;
  if (knobs.seed != 0) {
    spec.mcts_rl.train.seed = knobs.seed;
    spec.mcts_rl.mcts.seed = knobs.seed + 1;
    spec.regulate.train.seed = knobs.seed;
    spec.regulate.mcts.seed = knobs.seed + 1;
    spec.sa.seed = knobs.seed;
  }
  return spec;
}

PlaceResult run(netlist::Design& design, const PlacerSpec& spec,
                PreparedFlow* prepared) {
  PlaceResult result;
  util::Timer timer;
  switch (spec.preset) {
    case Preset::kMcts: {
      MctsRlOptions o = spec.mcts_rl;
      if (spec.cancel.valid()) o.cancel = spec.cancel;
      MctsRlResult r =
          prepared != nullptr
              ? detail::mcts_rl_place_prepared(design, prepared->context, o)
              : detail::mcts_rl_place(design, o);
      result.hpwl = r.hpwl;
      result.coarse_wirelength = r.coarse_wirelength;
      result.macro_groups = r.macro_groups;
      result.cell_groups = r.cell_groups;
      result.cancelled = r.cancelled;
      result.finalized = r.finalized;
      result.train_seconds = r.train_seconds;
      result.mcts_seconds = r.mcts_seconds;
      result.train_result = std::move(r.train_result);
      result.mcts_result = std::move(r.mcts_result);
      break;
    }
    case Preset::kRlOnly: {
      MctsRlOptions o = spec.mcts_rl;
      if (spec.cancel.valid()) o.cancel = spec.cancel;
      RlOnlyResult r =
          prepared != nullptr
              ? detail::rl_only_place_prepared(design, prepared->context, o)
              : detail::rl_only_place(design, o);
      result.hpwl = r.hpwl;
      result.coarse_wirelength = r.coarse_wirelength;
      result.macro_groups = r.macro_groups;
      result.cancelled = r.cancelled;
      result.finalized = r.finalized;
      result.train_result = std::move(r.train_result);
      break;
    }
    case Preset::kSa: {
      SaOptions o = spec.sa;
      // Baselines honor cancellation during their GP stages only; the core
      // annealer/greedy loops run to completion.
      if (spec.cancel.valid()) o.initial_gp.cancel = spec.cancel;
      const SaResult r = detail::sa_place(design, o);
      result.hpwl = r.hpwl;
      result.sa_accept_ratio = r.accept_ratio;
      result.sa_final_cost = r.final_cost;
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kWiremask: {
      WiremaskOptions o = spec.wiremask;
      if (spec.cancel.valid()) o.initial_gp.cancel = spec.cancel;
      const WiremaskResult r = detail::wiremask_place(design, o);
      result.hpwl = r.hpwl;
      result.wiremask_candidates = r.candidates_evaluated;
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kAnalytic: {
      AnalyticOptions o = spec.analytic;
      if (spec.cancel.valid()) o.mixed_gp.cancel = spec.cancel;
      const AnalyticResult r = detail::analytic_place(design, o);
      result.hpwl = r.hpwl;
      result.analytic_mixed_overflow = r.mixed_overflow;
      result.cancelled = spec.cancel.cancelled();
      break;
    }
    case Preset::kRegulate: {
      RegulateOptions o = spec.regulate;
      if (spec.cancel.valid()) o.cancel = spec.cancel;
      RegulateResult r =
          prepared != nullptr
              ? detail::regulate_place_prepared(design, prepared->context, o)
              : detail::regulate_place(design, o);
      result.hpwl = r.hpwl;
      result.coarse_wirelength = r.coarse_wirelength;
      result.macro_groups = r.macro_groups;
      result.cell_groups = r.cell_groups;
      result.cancelled = r.cancelled;
      result.finalized = r.finalized;
      result.train_seconds = r.train_seconds;
      result.mcts_seconds = r.mcts_seconds;
      result.train_result = std::move(r.train_result);
      result.mcts_result = std::move(r.mcts_result);
      result.input_hpwl = r.input_hpwl;
      result.moved_groups = r.moved_groups;
      result.frozen_groups = r.frozen_groups;
      break;
    }
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mp::place
