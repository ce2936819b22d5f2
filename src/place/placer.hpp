#pragma once
// The paper's placer (Algorithm 1): preprocessing → RL pre-training →
// MCTS placement optimization → macro legalization → cell placement.
//
// Unified entry point — and the only public one: build a PlacerSpec (by
// hand, or from a preset name + knob set via spec_from_preset) and call
// place::run().  One facade covers all six flows — the paper's MCTS flow,
// the RL-only ablation, the SA / wiremask / analytic baselines, and the
// incremental regulate flow — plus the warm-start path on an
// already-prepared flow context.  The three RL presets are one pipeline
// with one stage swapped; the per-flow functions live in place::detail
// (place/detail.hpp) and are implementation plumbing, not API
// (docs/API.md).

#include <cstdint>
#include <string>
#include <vector>

#include "mcts/mcts.hpp"
#include "place/analytic_placer.hpp"
#include "place/flow.hpp"
#include "place/sa_placer.hpp"
#include "place/wiremask_placer.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"

namespace mp::place {

/// Options shared by the three RL presets (mcts, rl_only, regulate).
struct RlFlowOptions {
  FlowOptions flow;
  rl::AgentConfig agent = [] {
    rl::AgentConfig c;
    // CPU-budget default; the paper's configuration is channels=128,
    // res_blocks=10 (pass those for full fidelity).
    c.channels = 32;
    c.res_blocks = 3;
    return c;
  }();
  rl::TrainOptions train;
  mcts::MctsOptions mcts;  ///< ignored by rl_only
  /// Pre-trained parameters restored into the freshly constructed agent
  /// before training (the paper's pre-trained-policy setting; also the
  /// service weights cache, src/svc/cache.hpp).  Shapes must match the
  /// agent config; empty keeps the random initialization.
  std::vector<nn::Tensor> initial_parameters;
};

/// The from-scratch RL presets: kMcts and kRlOnly.
struct MctsRlOptions : RlFlowOptions {
  /// Warm-start the MCTS with the allocation induced by the initial
  /// analytical placement and the best training episode, and bias expansion
  /// priors toward each group's analytical position.  This stands in for the
  /// prior knowledge a fully pre-trained agent provides (the paper trains
  /// 3-10 h on GPU); set false for the paper's pure-π_θ search.
  bool analytic_guidance = true;
};

/// Incremental / ECO re-placement (kRegulate) — the macro-regulator flow of
/// "RL Policy as Macro Regulator Rather than Macro Placer" (arXiv
/// 2412.07167) mapped onto the MCTS-guided-by-RL pipeline: accept an
/// existing legal placement (from any other preset, or a user-submitted
/// .pl), fine-tune and search with every macro group confined to a trust
/// region around its incumbent grid anchor, then re-legalize only the
/// touched region (macros whose groups did not move keep their exact input
/// coordinates).  The final HPWL never exceeds the legal input's.
///
/// The trust region is a per-group action mask (rl::PlacementEnv::
/// set_allowed_actions): a Chebyshev-`radius` cell neighborhood of the
/// incumbent anchor for movable groups, the incumbent cell alone for frozen
/// ones.  Frozen steps are forced moves, which the search commits directly
/// (mcts::MctsOptions::auto_commit_forced) so the whole exploration budget
/// goes to the groups that may actually move.  `train` is the fine-tune
/// budget: spec_from_preset derives a fraction of the from-scratch episode
/// count, since the trust region shrinks the action space so far that a
/// short run converges (the regulator paper's core economy).
struct RegulateOptions : RlFlowOptions {
  /// Trust region: movable groups may re-anchor within this Chebyshev cell
  /// distance of their incumbent anchor (0 pins everything).
  int radius = 2;
  /// Macro names whose groups must not move (a frozen member freezes its
  /// whole group).  Unknown names are warned about and ignored.
  std::vector<std::string> frozen;
  /// Upper bound on the number of groups allowed to move; 0 = unbounded.
  /// When the movable count exceeds it, groups are ranked by incident
  /// coarse-net HPWL ("tension", ties by group index) and only the top
  /// max_moves stay movable — the ECO intuition that the worst-stretched
  /// macros are the ones worth touching.
  int max_moves = 0;
};

// --- Unified placer API ---

/// Which placement flow to run.  Canonical names (preset_name): mcts,
/// rl_only, sa, wiremask, analytic, regulate.
enum class Preset {
  kMcts,      ///< the paper's flow (RL pre-training + MCTS); alias "ours"
  kRlOnly,    ///< CT-style greedy policy rollout; alias "rl"
  kSa,        ///< simulated-annealing baseline
  kWiremask,  ///< MaskPlace-style greedy baseline
  kAnalytic,  ///< mixed-size analytical baseline
  kRegulate,  ///< incremental/ECO trust-region refinement; alias "eco"
};

const char* preset_name(Preset preset);

/// One row of the shared preset-name table: a spelling every front end
/// (place_bookshelf flags, service JSON jobs, mp_submit) accepts.
/// `canonical` marks the preset_name() spelling.
struct PresetAlias {
  const char* name;
  Preset preset;
  bool canonical;
};

/// The full canonical-plus-alias name table, canonical spelling first per
/// preset.  parse_preset and the service job parser both resolve names
/// through this table — there is exactly one copy of the accepted name set,
/// and tests enumerate it rather than hard-coding spellings.
const std::vector<PresetAlias>& preset_aliases();

/// Accepts every spelling in preset_aliases().  Returns false (out
/// untouched) on anything else.
bool parse_preset(const std::string& name, Preset& out);

/// The knob set every front end exposes (place_bookshelf flags, service
/// JobSpec fields).  Defaults are the CPU-budget CLI defaults.
struct PresetKnobs {
  int episodes = 60;   ///< RL pre-training episodes
  int gamma = 24;      ///< MCTS explorations per move
  int grid = 16;       ///< ζ — grid dimension
  int channels = 24;   ///< agent tower width
  int blocks = 2;      ///< agent tower depth
  /// 0 keeps every library default seed (bit-identity with fronts that
  /// expose no seed); non-zero overrides the preset's RNG seeds (train /
  /// mcts for the RL flows, the annealer for sa).
  std::uint64_t seed = 0;
  // --- regulate preset only (ignored by the from-scratch flows) ---
  int regulate_radius = 2;     ///< trust-region Chebyshev cell radius
  int regulate_max_moves = 0;  ///< cap on moved groups; 0 = unbounded
  std::vector<std::string> regulate_frozen;  ///< macro names pinned in place
};

/// Everything place::run needs: the preset selector plus the option struct
/// for each flow (only the selected one is read).  Build by hand for full
/// control, or with spec_from_preset for the shared front-end derivation.
struct PlacerSpec {
  Preset preset = Preset::kMcts;
  MctsRlOptions mcts_rl;   ///< kMcts and kRlOnly (mcts member ignored by rl)
  SaOptions sa;
  WiremaskOptions wiremask;
  AnalyticOptions analytic;
  RegulateOptions regulate;
  /// Cooperative cancellation: when valid, propagated into the selected
  /// flow's own cancel points before running (the flow, train and mcts
  /// stages of the RL presets; the GP stages of the baselines, whose core
  /// loops run to completion).  A cancelled RL run stops at the next stage
  /// or iteration boundary with PlaceResult::cancelled set and always
  /// leaves finite positions; when the search had already produced a
  /// complete allocation it is legalized as usual.  A cancelled regulate
  /// keeps the legal input placement.
  util::CancelToken cancel;
};

/// The one preset → options derivation shared by the CLI, the service and
/// the benches, so all fronts get byte-identical option structs (the
/// bit-identity contract between place_bookshelf and service jobs hangs on
/// there being exactly one copy of this logic).
PlacerSpec spec_from_preset(Preset preset, const PresetKnobs& knobs = {});

/// Reusable preprocessing (Algorithm 1 lines 1-2) for the RL flows: capture
/// after prepare_flow() (or prepare_regulate_flow() for kRegulate) and pass
/// to run() to skip clustering + initial GP — the warm-artifact path of the
/// placement service.  `context.spec` must match the spec's flow.grid_dim,
/// and the design passed to run() must hold the placement that produced the
/// context (the initial GP result for the from-scratch flows, the incumbent
/// placement for kRegulate).  Ignored by the baseline presets (they place
/// from the raw design).
struct PreparedFlow {
  FlowContext context;
};

/// The result of every flow.  Fields a flow does not produce keep their
/// zero default.
struct PlaceResult {
  double hpwl = 0.0;
  double coarse_wirelength = 0.0;  ///< RL flows only (0 for baselines)
  double seconds = 0.0;
  int macro_groups = 0;            ///< RL flows only (0 for baselines)
  int cell_groups = 0;             ///< RL flows only (0 for baselines)
  bool cancelled = false;
  bool finalized = true;           ///< legalization + cell placement ran
  // --- RL flows (kMcts, kRlOnly, kRegulate) ---
  double train_seconds = 0.0;
  double mcts_seconds = 0.0;       ///< kMcts and kRegulate
  rl::TrainResult train_result;
  mcts::MctsResult mcts_result;    ///< kMcts and kRegulate
  // --- kRegulate ---
  double input_hpwl = 0.0;   ///< HPWL of the incumbent placement as received
  int moved_groups = 0;      ///< groups re-anchored inside the trust region
  int frozen_groups = 0;     ///< groups pinned by regulate.frozen/max_moves
  // --- baselines ---
  double sa_accept_ratio = 0.0;
  double sa_final_cost = 0.0;
  long long wiremask_candidates = 0;
};

/// Runs the selected flow in place; `design` ends up fully placed (and
/// legal, unless cancelled before a complete allocation existed).  With a
/// PreparedFlow, the RL flows skip preprocessing and are bit-identical to
/// the cold path at equal options.  Telemetry: a cold RL run owns a run
/// window (registry reset, root span, one JSONL report labelled
/// mcts_rl_place, rl_only_place or regulate_place); pass prepared (or wrap
/// in an obs::ScopedContext) when the caller owns the window.
PlaceResult run(netlist::Design& design, const PlacerSpec& spec,
                PreparedFlow* prepared = nullptr);

}  // namespace mp::place
