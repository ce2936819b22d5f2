#pragma once
// The paper's placer (Algorithm 1): preprocessing → RL pre-training →
// MCTS placement optimization → macro legalization → cell placement.
//
// Unified entry point — and the only public one: build a PlacerSpec (by
// hand, or from a preset name + knob set via spec_from_preset) and call
// place::run().  One facade covers all six flows — the paper's MCTS flow,
// the RL-only ablation, the SA / wiremask / analytic baselines, and the
// incremental regulate flow (place/regulate_placer.hpp) — plus the
// warm-start path on an already-prepared flow context.  The per-flow
// functions live in place::detail and are implementation plumbing, not API
// (docs/API.md).

#include <cstdint>
#include <string>
#include <vector>

#include "mcts/mcts.hpp"
#include "place/analytic_placer.hpp"
#include "place/flow.hpp"
#include "place/regulate_placer.hpp"
#include "place/sa_placer.hpp"
#include "place/wiremask_placer.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"

namespace mp::place {

struct MctsRlOptions {
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
  mcts::MctsOptions mcts;
  /// Warm-start the MCTS with the allocation induced by the initial
  /// analytical placement and the best training episode, and bias expansion
  /// priors toward each group's analytical position.  This stands in for the
  /// prior knowledge a fully pre-trained agent provides (the paper trains
  /// 3-10 h on GPU); set false for the paper's pure-π_θ search.
  bool analytic_guidance = true;
  /// Pre-trained parameters restored into the freshly constructed agent
  /// before training (the paper's pre-trained-policy setting; also the
  /// service weights cache, src/svc/cache.hpp).  Shapes must match the
  /// agent config; empty keeps the random initialization.
  std::vector<nn::Tensor> initial_parameters;
  /// Cooperative cancellation for the whole flow: when valid, it is
  /// propagated into flow/train/mcts before running, and the flow stops at
  /// the next stage or iteration boundary with MctsRlResult::cancelled set.
  /// The design is always left with finite positions; when the search had
  /// already produced a complete allocation it is legalized as usual, so a
  /// cancelled run may still end in a fully legal placement.
  util::CancelToken cancel;
};

struct MctsRlResult {
  double hpwl = 0.0;             ///< final measured HPWL (Sec. II-C)
  double coarse_wirelength = 0.0;///< MCTS allocation wirelength (coarse model)
  double train_seconds = 0.0;
  double mcts_seconds = 0.0;
  double total_seconds = 0.0;
  int macro_groups = 0;
  int cell_groups = 0;
  rl::TrainResult train_result;
  mcts::MctsResult mcts_result;
  bool cancelled = false;   ///< stopped early via MctsRlOptions::cancel
  bool finalized = false;   ///< legalization + cell placement completed
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
  /// flow's own cancel points before running (the whole RL/MCTS/regulate
  /// flow; the GP stages of the baselines, whose core loops run to
  /// completion).
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

/// Preset-independent result summary.  The flow-specific block after
/// `finalized` is filled only by the flow that produced it and keeps its
/// zero default otherwise — one flat struct instead of five result types,
/// so callers of run() never need the per-flow entry points.
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
  double analytic_mixed_overflow = 0.0;
};

/// Runs the selected flow in place; `design` ends up fully placed (and
/// legal, unless cancelled before a complete allocation existed).  With a
/// PreparedFlow, the RL flows skip preprocessing and are bit-identical to
/// the cold path at equal options.  Telemetry: the cold RL flows own a run
/// window (reset + JSONL report); pass prepared (or wrap in an
/// obs::ScopedContext) when the caller owns the window.
PlaceResult run(netlist::Design& design, const PlacerSpec& spec,
                PreparedFlow* prepared = nullptr);

namespace detail {

/// Per-flow plumbing behind run() — kept callable for the implementation
/// files and white-box tests, but not part of the public API surface
/// (docs/API.md documents run()/PlacerSpec only).
MctsRlResult mcts_rl_place(netlist::Design& design,
                           const MctsRlOptions& options = {});

/// Runs the flow on an already-prepared context (Algorithm 1 lines 3-16):
/// `design` must hold the initial placement that produced `context`.  Skips
/// the obs run-report window management of mcts_rl_place (the caller owns
/// the telemetry window); results are bit-identical to a cold mcts_rl_place
/// at the same options.  options.flow.grid_dim must match context.spec.
MctsRlResult mcts_rl_place_prepared(netlist::Design& design,
                                    FlowContext& context,
                                    const MctsRlOptions& options = {});

}  // namespace detail

}  // namespace mp::place
