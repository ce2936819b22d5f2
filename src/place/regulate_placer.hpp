#pragma once
// Incremental / ECO re-placement (preset=regulate) — the macro-regulator
// flow of "RL Policy as Macro Regulator Rather than Macro Placer"
// (arXiv 2412.07167) mapped onto this repo's MCTS-guided-by-RL machinery:
// accept an existing legal placement (from any other preset, or a
// user-submitted .pl), and run bounded-perturbation MCTS/RL that nudges
// macro groups within a trust region around their incumbent grid anchors to
// recover HPWL after a netlist delta, then re-legalize only the touched
// region (macros whose groups did not move keep their exact input
// coordinates).
//
// The trust region is a per-group action mask (rl::PlacementEnv::
// set_allowed_actions): a Chebyshev-`radius` cell neighborhood of the
// incumbent anchor for movable groups, the incumbent cell alone for frozen
// ones.  Frozen steps are forced moves, which the search commits directly
// (mcts::MctsOptions::auto_commit_forced) so the whole exploration budget
// goes to the groups that may actually move.  Results are deterministic:
// bit-identical across eval_batch settings and across thread counts above
// one (one thread trains on the serial self-play loop), same as every
// other preset.
//
// This header must stay includable from place/placer.hpp (it defines the
// PlacerSpec member type), so it must not include placer.hpp itself.

#include <string>
#include <vector>

#include "mcts/mcts.hpp"
#include "place/flow.hpp"
#include "rl/coarse_evaluator.hpp"
#include "rl/trainer.hpp"

namespace mp::place {

struct RegulateOptions {
  FlowOptions flow;
  rl::AgentConfig agent = [] {
    rl::AgentConfig c;
    c.channels = 32;
    c.res_blocks = 3;
    return c;
  }();
  /// Fine-tune budget; spec_from_preset derives a fraction of the from-
  /// scratch episode count — the trust region shrinks the action space so
  /// far that a short run converges (the regulator paper's core economy).
  rl::TrainOptions train;
  mcts::MctsOptions mcts;
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
  /// Pre-trained parameters restored into the agent before fine-tuning.
  std::vector<nn::Tensor> initial_parameters;
  /// Cooperative cancellation (propagated into flow/train/mcts).  A
  /// cancelled regulate keeps the input placement — the design is always
  /// left fully placed and legal.
  util::CancelToken cancel;
};

struct RegulateResult {
  double input_hpwl = 0.0;  ///< HPWL of the placement as received
  double hpwl = 0.0;        ///< final HPWL; never worse than the legal input
  double coarse_wirelength = 0.0;
  double train_seconds = 0.0;
  double mcts_seconds = 0.0;
  double total_seconds = 0.0;
  int macro_groups = 0;
  int cell_groups = 0;
  int moved_groups = 0;   ///< groups whose anchor changed vs the incumbent
  int frozen_groups = 0;  ///< groups pinned by `frozen` + `max_moves`
  rl::TrainResult train_result;
  mcts::MctsResult mcts_result;
  bool cancelled = false;
  /// True when the design ends fully placed and legal — regulate guarantees
  /// it whenever the input was legal (worst case it restores the input).
  bool finalized = false;
};

/// Preprocessing for the regulate flow: ζ×ζ grid partition, clustering and
/// coarse netlist on the *incumbent* positions — unlike prepare_flow there
/// is no initial global placement, so `design` is not mutated and the input
/// placement survives to seed the clustering distances and the trust
/// region.  Cacheable per (design bytes, placement bytes, grid_dim) — the
/// service's warm ECO path (src/svc/cache.hpp).
FlowContext prepare_regulate_flow(const netlist::Design& design,
                                  const FlowOptions& options);

namespace detail {

/// Full regulate flow in place: prepare_regulate_flow + fine-tune + trust-
/// region MCTS + touched-region re-legalization.  Owns one obs run-report
/// window.  `design` must hold the incumbent placement.
RegulateResult regulate_place(netlist::Design& design,
                              const RegulateOptions& options = {});

/// Same flow on an already-prepared context (warm-cache path).  `context`
/// must come from prepare_regulate_flow on this design + placement; the
/// caller owns the telemetry window.  Bit-identical to a cold
/// regulate_place at equal options.
RegulateResult regulate_place_prepared(netlist::Design& design,
                                       FlowContext& context,
                                       const RegulateOptions& options = {});

}  // namespace detail

}  // namespace mp::place
