#pragma once
// Placement optimization by MCTS guided by the pre-trained agent (Sec. IV).
//
// For every macro group M_t the search runs γ explorations, each consisting
// of
//   selection      — descend by argmax Q + U with the PUCT bonus (Eqs. 10-11,
//                    c = 1.05 in the paper), priors P from π_θ,
//   expansion      — create all child edges of the reached unexplored node,
//   evaluation     — v_θ from the value network for non-terminal nodes; the
//                    *actual* placement flow (evaluator + reward) only for
//                    terminal nodes — the paper's key runtime reduction,
//   backpropagation— update N, W, Q along the path (Eq. 12).
// The most-visited root edge is then committed and its child becomes the new
// root (statistics are reused).

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "rl/agent.hpp"
#include "rl/reward.hpp"
#include "util/cancel.hpp"

namespace mp::mcts {

/// How non-terminal leaves are scored (Sec. IV-B3).
enum class LeafEvaluation {
  /// The paper's method: the value network's v_θ.  Needs a well-trained
  /// value head (the paper trains 3-10 h); with a short CPU budget the
  /// guidance is weak.
  kValueNetwork,
  /// QP completion estimate: pin the prefix, relax the remaining groups and
  /// cell groups, take the reward of the resulting coarse HPWL.  A strong,
  /// training-free evaluator (used by the scaled-down benches; see
  /// EXPERIMENTS.md) at the cost of one small QP per leaf.
  kPartialPlacement,
  /// Traditional MCTS: complete the episode with uniform random actions and
  /// run the full evaluation — the expensive baseline the paper argues
  /// against (kept for the ablation bench).
  kRandomRollout,
};

struct MctsOptions {
  int explorations_per_move = 40;  ///< γ
  double c_puct = 1.05;            ///< c in Eq. (11)
  LeafEvaluation leaf_evaluation = LeafEvaluation::kValueNetwork;
  std::uint64_t seed = 7;

  /// Optional warm-start lines: full action sequences (one action per macro
  /// group) walked, evaluated and backed up before the search starts, each
  /// with `seed_visits` virtual visits.  place::run's mcts preset (with
  /// analytic_guidance) seeds the analytic-placement-derived allocation and
  /// the best training episode — standing in for the prior a fully
  /// pre-trained agent would provide (the paper trains 3-10 h; see
  /// DESIGN.md "Substitutions"); the regulate preset seeds the incumbent.
  std::vector<std::vector<int>> seed_paths;
  int seed_visits = 4;

  /// Optional multiplicative prior re-weighting: bonus(step, action) >= 0 is
  /// multiplied into the policy prior at expansion.  Used to bias the search
  /// toward each group's analytical position; empty = pure π_θ (paper mode).
  std::function<double(int step, int action)> prior_bonus;

  /// Leaf evaluations per batch (tree parallelism).  1 (default) runs the
  /// classic serial loop, bit-identical to the pre-parallel implementation.
  /// 0 resolves to the par:: pool's thread count.  >1 selects that many
  /// leaves per batch under virtual loss, evaluates them concurrently on
  /// per-slot agent/evaluator clones and backs them up serially in slot
  /// order — the committed move sequence depends on eval_batch but NOT on
  /// how many threads execute the batch (see docs/PARALLELISM.md).
  int eval_batch = 1;

  /// Visits temporarily added to every edge on an in-flight selection path
  /// (scored as if they had returned the worst value seen), pushing the
  /// other slots of the same batch onto different lines.  Removed at backup.
  int virtual_loss = 3;

  /// Commit steps with exactly one legal action directly instead of spending
  /// γ explorations on them.  Deterministic (the forced action is the only
  /// playable one) and off by default so existing searches keep their exact
  /// exploration schedule.  The regulate flow enables it: with frozen macros
  /// masked to their incumbent cell (rl::PlacementEnv::set_allowed_actions)
  /// most steps are forced, and skipping them spends the whole budget on the
  /// groups that may actually move.
  bool auto_commit_forced = false;

  /// Cooperative cancellation, polled between explorations (serial mode) or
  /// between batches, and between committed moves.  A cancelled search
  /// returns the best complete allocation evaluated so far (terminal leaves,
  /// seed lines) with MctsResult::cancelled set; when none exists the
  /// anchors are empty and the wirelength is +inf.  An inert or untriggered
  /// token leaves the search bit-identical.
  util::CancelToken cancel;
};

struct MctsResult {
  std::vector<grid::CellCoord> anchors;   ///< final allocation (best seen)
  double wirelength = 0.0;                ///< evaluator W of the allocation
  double reward = 0.0;                    ///< reward(W)
  /// W of the allocation committed by tracing the search path (Algorithm 1
  /// line 15); `wirelength` is min(committed, best terminal ever evaluated).
  double committed_wirelength = 0.0;
  long long nodes_created = 0;
  long long nn_evaluations = 0;           ///< value-network evaluations
  long long terminal_evaluations = 0;     ///< full placement evaluations
  long long forced_moves = 0;  ///< moves committed via auto_commit_forced
  bool cancelled = false;                 ///< stopped via MctsOptions::cancel
};

class MctsPlacer {
 public:
  /// All references must outlive the placer.  `reward` maps wirelength to
  /// value (higher is better) and must match the scale the agent's value
  /// head was trained on (use the trainer's calibrated Eq. 9 reward).
  MctsPlacer(rl::PlacementEnv& env, rl::AllocationEvaluator& evaluator,
             rl::AgentNetwork& agent, rl::RewardFn reward,
             const MctsOptions& options = {});

  MctsPlacer(const MctsPlacer&) = delete;
  MctsPlacer& operator=(const MctsPlacer&) = delete;

  /// Runs the full allocation (Algorithm 1 lines 11-15).
  MctsResult run();

 private:
  struct Edge {
    int action = -1;
    int child = -1;  ///< node index, -1 until visited
    double prior = 0.0;
    double total_value = 0.0;  ///< W(s_p, s_q)
    int visits = 0;            ///< N(s_p, s_q)
    /// In-flight batch-mode visits (pessimistically scored in select_edge);
    /// always 0 outside run_batch() and in the serial path.
    int virtual_loss = 0;
    double mean_value() const { return visits > 0 ? total_value / visits : 0.0; }
  };

  struct Node {
    bool expanded = false;
    /// v_θ of this node when it was expanded (first-play urgency for its
    /// unvisited edges), or the cached terminal reward.
    double eval_value = 0.0;
    bool has_terminal_value = false;
    std::vector<Edge> edges;
  };

  /// Running min/max of every backed-up value; Q is min-max normalized to
  /// [0, 1] inside the selection rule so the PUCT exploration term stays
  /// comparable to Q regardless of the reward calibration (the paper's
  /// rewards live in [α-0.5, α+0.5] while U ~ c/branching).
  struct MinMaxStats {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    void update(double v) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    double normalize(double v) const {
      if (!(hi > lo)) return 0.5;
      return (v - lo) / (hi - lo);
    }
  };

  /// Per-batch-slot resources for concurrent leaf evaluation.  The agent is
  /// always clonable; the evaluator clone may be nullptr (un-clonable
  /// evaluator), in which case the batch evaluates serially through the
  /// shared evaluator — same results, no overlap.
  struct WorkerContext {
    std::unique_ptr<rl::AgentNetwork> agent;
    std::unique_ptr<rl::AllocationEvaluator> evaluator;
  };

  /// One selected-but-not-yet-applied leaf of a batch.
  struct PendingLeaf {
    std::vector<std::pair<int, int>> path;  ///< (node, edge) indices
    int node_index = -1;
    bool valid = false;             ///< selection reached a usable leaf
    bool terminal = false;          ///< env done at the leaf
    bool cached_terminal = false;   ///< terminal value already on the node
    int step = 0;                   ///< env step at the leaf
    std::optional<rl::PlacementEnv> env;  ///< private copy at the leaf state
    // Worker outputs (filled by the evaluation phase):
    double value = 0.0;
    bool have_wirelength = false;   ///< terminal / rollout produced a full W
    double wirelength = 0.0;
    std::vector<grid::CellCoord> anchors;  ///< allocation behind `wirelength`
    rl::AgentOutput out;            ///< non-terminal network output
    std::vector<int> legal;         ///< legal actions at the leaf
  };

  // Replays env to the state given by `actions`; returns false on failure.
  bool replay(const std::vector<int>& actions);

  // One exploration from the current root; returns the leaf value.
  void explore();

  // Batch-mode exploration: selects `batch` leaves under virtual loss,
  // evaluates them in parallel, applies them serially in slot order.
  void run_batch(int batch);

  // Fills the node's edges from `legal` priors (masked policy + floor +
  // optional prior bonus) — shared by serial expansion and batch apply.
  void expand_node(Node& node, const std::vector<int>& legal,
                   const nn::Tensor& probs, int step);

  void ensure_contexts(int batch);

  // Walks one seed line from the current root, expanding nodes along it and
  // backing up its terminal value with options_.seed_visits virtual visits.
  void seed_path(const std::vector<int>& actions);

  // Expands `node` (whose env state is current) and returns its evaluation.
  double expand_and_evaluate(int node_index);

  int select_edge(const Node& node) const;

  MinMaxStats value_bounds_;
  double best_terminal_wirelength_ = std::numeric_limits<double>::infinity();
  std::vector<grid::CellCoord> best_terminal_anchors_;

  rl::PlacementEnv& env_;
  rl::AllocationEvaluator& evaluator_;
  rl::AgentNetwork& agent_;
  rl::RewardFn reward_;
  MctsOptions options_;
  util::Rng rng_;

  std::vector<WorkerContext> contexts_;
  /// Monotone exploration counter; batch slot k of the current batch draws
  /// its rollout randomness from rng_.split(counter + k) so results are a
  /// function of the slot index, not of worker scheduling.
  std::uint64_t exploration_counter_ = 0;

  std::vector<Node> nodes_;
  int root_ = 0;
  std::vector<int> committed_;  ///< actions fixed so far
  MctsResult stats_;
};

}  // namespace mp::mcts
