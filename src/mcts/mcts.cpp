#include "mcts/mcts.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "check/check.hpp"
#include "check/validators.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "util/log.hpp"

namespace mp::mcts {

namespace {

// Value-network forward (inference mode) for `env`'s current state.
rl::AgentOutput net_forward(const rl::PlacementEnv& env,
                            rl::AgentNetwork& agent) {
  const std::vector<double> sp = env.placement_state();
  const std::vector<double> availability = env.availability();
  return agent.forward(sp, availability, env.current_step(), env.num_steps(),
                       /*train=*/false);
}

}  // namespace

MctsPlacer::MctsPlacer(rl::PlacementEnv& env, rl::AllocationEvaluator& evaluator,
                       rl::AgentNetwork& agent, rl::RewardFn reward,
                       const MctsOptions& options)
    : env_(env),
      evaluator_(evaluator),
      agent_(agent),
      reward_(std::move(reward)),
      options_(options),
      rng_(options.seed) {
  // eval_batch == 0 means "match the worker pool"; the library default of 1
  // keeps the serial path unless a caller opts in.
  if (options_.eval_batch <= 0) options_.eval_batch = par::num_threads();
  nodes_.push_back(Node{});  // root
}

bool MctsPlacer::replay(const std::vector<int>& actions) {
  env_.reset();
  for (int action : actions) {
    if (!env_.step(action)) return false;
  }
  return true;
}

int MctsPlacer::select_edge(const Node& node) const {
  // Eq. (10)-(11): argmax over children of Q + c * P * sqrt(ΣN) / (1 + N).
  // Q is min-max normalized over all values seen so far, and unvisited edges
  // fall back to the node's own evaluation (first-play urgency) — without
  // both, the positive reward scale of Eq. (9) drowns the exploration term
  // and the search degenerates into one exploited line.
  double sum_visits = 0.0;
  for (const Edge& e : node.edges) sum_visits += e.visits + e.virtual_loss;
  const double sqrt_sum = std::sqrt(std::max(1.0, sum_visits));
  const double fpu = value_bounds_.normalize(node.eval_value);

  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < node.edges.size(); ++i) {
    const Edge& e = node.edges[i];
    double q = (e.visits > 0)
                   ? value_bounds_.normalize(e.mean_value())
                   : fpu;
    double visit_count = e.visits;
    if (e.virtual_loss > 0) {
      // Batch mode: score the in-flight visits as if they had returned the
      // worst value seen (normalized 0), steering the remaining slots of
      // this batch onto other lines.  The branch keeps the vl == 0 math —
      // and so the serial path — bit-identical to the pre-batch code.
      q = q * e.visits / (e.visits + e.virtual_loss);
      visit_count += e.virtual_loss;
    }
    const double u = options_.c_puct * e.prior * sqrt_sum / (1.0 + visit_count);
    const double score = q + u;
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(i);
    }
  }
  return best;
}

void MctsPlacer::expand_node(Node& node, const std::vector<int>& legal,
                             const nn::Tensor& probs, int step) {
  // Children: every on-chip anchor; priors from the masked policy, with a
  // uniform floor so zero-availability (but feasible) anchors stay
  // reachable.
  node.edges.reserve(legal.size());
  double prior_sum = 0.0;
  for (int action : legal) {
    Edge e;
    e.action = action;
    e.prior = static_cast<double>(probs[static_cast<std::size_t>(action)]);
    prior_sum += e.prior;
    node.edges.push_back(e);
  }
  if (prior_sum <= 1e-12) {
    for (Edge& e : node.edges) e.prior = 1.0 / static_cast<double>(legal.size());
  } else {
    for (Edge& e : node.edges) e.prior /= prior_sum;
  }
  // Optional analytic prior bias (DESIGN.md "Substitutions").
  if (options_.prior_bonus) {
    double bonus_sum = 0.0;
    for (Edge& e : node.edges) {
      e.prior *= std::max(0.0, options_.prior_bonus(step, e.action));
      bonus_sum += e.prior;
    }
    if (bonus_sum > 1e-12) {
      for (Edge& e : node.edges) e.prior /= bonus_sum;
    } else {
      for (Edge& e : node.edges) {
        e.prior = 1.0 / static_cast<double>(node.edges.size());
      }
    }
  }
  node.expanded = true;
}

double MctsPlacer::expand_and_evaluate(int node_index) {
  // Terminal: evaluate the actual allocation (Sec. IV-B3), once per node.
  if (env_.done()) {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    if (!node.has_terminal_value) {
      const double w = evaluator_.evaluate(env_.anchors());
      ++stats_.terminal_evaluations;
      MP_OBS_COUNT("mcts.terminal_evaluations", 1);
      MP_OBS_HIST("mcts.terminal_wirelength", w);
      node.eval_value = reward_(w);
      if (check::validate_level() >= 1) {
        MP_CHECK_FINITE(w, "terminal wirelength in MCTS");
        MP_CHECK_FINITE(node.eval_value, "terminal reward in MCTS");
      }
      node.has_terminal_value = true;
      if (w < best_terminal_wirelength_) {
        best_terminal_wirelength_ = w;
        best_terminal_anchors_ = env_.anchors();
      }
    }
    return node.eval_value;
  }

  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  const bool already_expanded = node.expanded;
  const rl::AgentOutput out = net_forward(env_, agent_);
  // A NaN value or poisoned prior would silently corrupt every backup on
  // this line of play; catch it at the network boundary.
  if (check::validate_level() >= 1) {
    MP_CHECK_FINITE(out.value, "value head output in MCTS expansion");
    check::validate_probabilities(out.probs, "policy head output",
                                  "mcts.expand");
  }
  ++stats_.nn_evaluations;
  MP_OBS_COUNT("mcts.nn_evaluations", 1);
  if (!already_expanded) MP_OBS_COUNT("mcts.expansions", 1);

  // Expansion first (it reads the node's own environment state; the rollout
  // leaf evaluation below advances the environment).
  if (!already_expanded) {
    expand_node(node, env_.legal_actions(), out.probs, env_.current_step());
  }

  // Leaf value per the configured evaluation mode.
  double value = static_cast<double>(out.value);
  switch (options_.leaf_evaluation) {
    case LeafEvaluation::kValueNetwork:
      break;
    case LeafEvaluation::kPartialPlacement:
      value = reward_(evaluator_.evaluate_partial(env_.anchors()));
      break;
    case LeafEvaluation::kRandomRollout: {
      // Complete the episode randomly from the current state (the caller
      // replays the environment for every exploration, so no restore).
      bool ok = true;
      while (!env_.done()) {
        const std::vector<int> legal = env_.legal_actions();
        if (legal.empty()) {
          ok = false;
          break;
        }
        env_.step(legal[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<int>(legal.size()) - 1))]);
      }
      if (ok) {
        const double w = evaluator_.evaluate(env_.anchors());
        ++stats_.terminal_evaluations;
        MP_OBS_COUNT("mcts.terminal_evaluations", 1);
        MP_OBS_HIST("mcts.terminal_wirelength", w);
        value = reward_(w);
        if (w < best_terminal_wirelength_) {
          best_terminal_wirelength_ = w;
          best_terminal_anchors_ = env_.anchors();
        }
      }
      break;
    }
  }
  node.eval_value = value;
  return value;
}

void MctsPlacer::explore() {
  MP_OBS_COUNT("mcts.simulations", 1);
  if (!replay(committed_)) {
    util::log_warn() << "mcts: committed prefix became unplayable";
    return;
  }
  // Selection: descend until an unexplored node or terminal state.
  std::vector<std::pair<int, int>> path;  // (node index, edge index)
  int node_index = root_;
  while (nodes_[static_cast<std::size_t>(node_index)].expanded && !env_.done()) {
    const int edge_index = select_edge(nodes_[static_cast<std::size_t>(node_index)]);
    if (edge_index < 0) break;  // no legal children (full chip)
    Edge& edge =
        nodes_[static_cast<std::size_t>(node_index)].edges[static_cast<std::size_t>(edge_index)];
    if (!env_.step(edge.action)) break;
    if (edge.child < 0) {
      edge.child = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      ++stats_.nodes_created;
    }
    path.emplace_back(node_index, edge_index);
    node_index = edge.child;
  }

  MP_OBS_HIST("mcts.path_depth", static_cast<double>(path.size()));

  // Expansion + evaluation.
  const double value = expand_and_evaluate(node_index);
  if (check::validate_level() >= 1) {
    // Eq. (12) accumulates this into every edge on the path; a single NaN
    // would permanently poison their Q means and the min-max bounds.
    MP_CHECK_FINITE(value, "leaf value entering PUCT backup");
  }
  value_bounds_.update(value);

  // Backpropagation (Eq. 12).
  for (const auto& [n, e] : path) {
    Edge& edge = nodes_[static_cast<std::size_t>(n)].edges[static_cast<std::size_t>(e)];
    edge.visits += 1;
    edge.total_value += value;
    value_bounds_.update(edge.mean_value());
  }
}

void MctsPlacer::ensure_contexts(int batch) {
  while (static_cast<int>(contexts_.size()) < batch) {
    WorkerContext ctx;
    ctx.agent = agent_.clone();
    ctx.evaluator = evaluator_.clone();
    contexts_.push_back(std::move(ctx));
  }
}

void MctsPlacer::run_batch(int batch) {
  ensure_contexts(batch);
  std::vector<PendingLeaf> leaves(static_cast<std::size_t>(batch));

  // --- Phase 1: serial selection under virtual loss. ---------------------
  // Slot k sees the virtual losses applied by slots 0..k-1, so the batch
  // fans out over distinct lines; every virtual visit is drained in phase 3.
  for (int k = 0; k < batch; ++k) {
    PendingLeaf& leaf = leaves[static_cast<std::size_t>(k)];
    MP_OBS_COUNT("mcts.simulations", 1);
    if (!replay(committed_)) {
      util::log_warn() << "mcts: committed prefix became unplayable";
      continue;
    }
    int node_index = root_;
    while (nodes_[static_cast<std::size_t>(node_index)].expanded && !env_.done()) {
      const int edge_index =
          select_edge(nodes_[static_cast<std::size_t>(node_index)]);
      if (edge_index < 0) break;  // no legal children (full chip)
      Edge& edge = nodes_[static_cast<std::size_t>(node_index)]
                       .edges[static_cast<std::size_t>(edge_index)];
      if (!env_.step(edge.action)) break;
      if (edge.child < 0) {
        edge.child = static_cast<int>(nodes_.size());
        nodes_.push_back(Node{});
        ++stats_.nodes_created;
      }
      edge.virtual_loss += std::max(1, options_.virtual_loss);
      leaf.path.emplace_back(node_index, edge_index);
      node_index = edge.child;
    }
    MP_OBS_HIST("mcts.path_depth", static_cast<double>(leaf.path.size()));
    leaf.valid = true;
    leaf.node_index = node_index;
    leaf.terminal = env_.done();
    leaf.step = env_.current_step();
    const Node& node = nodes_[static_cast<std::size_t>(node_index)];
    leaf.cached_terminal = leaf.terminal && node.has_terminal_value;
    if (leaf.cached_terminal) {
      leaf.value = node.eval_value;
    } else {
      leaf.env.emplace(env_);  // private copy of the leaf state
    }
  }

  // --- Phase 2: leaf evaluation, concurrent when resources allow. --------
  // Each slot works only on its own env copy, agent clone, evaluator clone
  // and rng_.split stream, so the outputs are a pure function of the slot —
  // identical at every thread count.  A null evaluator clone means the
  // evaluator is not clonable; then the loop runs inline on the shared one.
  const bool cloned_eval = contexts_[0].evaluator != nullptr;
  auto evaluate_slot = [&](std::size_t k) {
    PendingLeaf& leaf = leaves[k];
    if (!leaf.valid || leaf.cached_terminal || !leaf.env.has_value()) return;
    rl::PlacementEnv& env = *leaf.env;
    rl::AllocationEvaluator& evaluator =
        cloned_eval ? *contexts_[k].evaluator : evaluator_;
    if (leaf.terminal) {
      leaf.wirelength = evaluator.evaluate(env.anchors());
      leaf.have_wirelength = true;
      leaf.anchors = env.anchors();
      leaf.value = reward_(leaf.wirelength);
      return;
    }
    leaf.out = net_forward(env, cloned_eval ? *contexts_[k].agent : agent_);
    leaf.legal = env.legal_actions();
    double value = static_cast<double>(leaf.out.value);
    switch (options_.leaf_evaluation) {
      case LeafEvaluation::kValueNetwork:
        break;
      case LeafEvaluation::kPartialPlacement:
        value = reward_(evaluator.evaluate_partial(env.anchors()));
        break;
      case LeafEvaluation::kRandomRollout: {
        util::Rng rng = rng_.split(exploration_counter_ + k);
        bool ok = true;
        while (!env.done()) {
          const std::vector<int> legal = env.legal_actions();
          if (legal.empty()) {
            ok = false;
            break;
          }
          env.step(legal[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(legal.size()) - 1))]);
        }
        if (ok) {
          leaf.wirelength = evaluator.evaluate(env.anchors());
          leaf.have_wirelength = true;
          leaf.anchors = env.anchors();
          value = reward_(leaf.wirelength);
        }
        break;
      }
    }
    leaf.value = value;
  };
  if (cloned_eval && par::current_threads() > 1) {
    par::parallel_for(0, static_cast<std::size_t>(batch), 1,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t k = lo; k < hi; ++k) {
                          evaluate_slot(k);
                        }
                      });
  } else {
    for (std::size_t k = 0; k < static_cast<std::size_t>(batch); ++k) {
      evaluate_slot(k);
    }
  }

  // --- Phase 3: serial apply in slot order. -------------------------------
  // Drains virtual loss, commits node state and backs values up exactly as
  // the serial loop would, so the tree after the batch depends only on the
  // slot results (deterministic) and their fixed order.
  for (int k = 0; k < batch; ++k) {
    PendingLeaf& leaf = leaves[static_cast<std::size_t>(k)];
    const int vl = std::max(1, options_.virtual_loss);
    for (const auto& [n, e] : leaf.path) {
      nodes_[static_cast<std::size_t>(n)]
          .edges[static_cast<std::size_t>(e)]
          .virtual_loss -= vl;
    }
    if (!leaf.valid) continue;
    Node& node = nodes_[static_cast<std::size_t>(leaf.node_index)];
    if (leaf.terminal) {
      if (!leaf.cached_terminal && leaf.have_wirelength) {
        ++stats_.terminal_evaluations;
        MP_OBS_COUNT("mcts.terminal_evaluations", 1);
        MP_OBS_HIST("mcts.terminal_wirelength", leaf.wirelength);
        if (check::validate_level() >= 1) {
          MP_CHECK_FINITE(leaf.wirelength, "terminal wirelength in MCTS");
          MP_CHECK_FINITE(leaf.value, "terminal reward in MCTS");
        }
        if (!node.has_terminal_value) {
          node.eval_value = leaf.value;
          node.has_terminal_value = true;
        } else {
          // A sibling slot of this batch evaluated the same node; keep the
          // cached value (bit-identical anyway for a deterministic
          // evaluator).
          leaf.value = node.eval_value;
        }
        if (leaf.wirelength < best_terminal_wirelength_) {
          best_terminal_wirelength_ = leaf.wirelength;
          best_terminal_anchors_ = leaf.anchors;
        }
      }
    } else {
      ++stats_.nn_evaluations;
      MP_OBS_COUNT("mcts.nn_evaluations", 1);
      if (check::validate_level() >= 1) {
        MP_CHECK_FINITE(leaf.out.value, "value head output in MCTS expansion");
        check::validate_probabilities(leaf.out.probs, "policy head output",
                                      "mcts.expand");
      }
      if (!node.expanded) {
        MP_OBS_COUNT("mcts.expansions", 1);
        expand_node(node, leaf.legal, leaf.out.probs, leaf.step);
      }
      if (leaf.have_wirelength) {
        ++stats_.terminal_evaluations;
        MP_OBS_COUNT("mcts.terminal_evaluations", 1);
        MP_OBS_HIST("mcts.terminal_wirelength", leaf.wirelength);
        if (leaf.wirelength < best_terminal_wirelength_) {
          best_terminal_wirelength_ = leaf.wirelength;
          best_terminal_anchors_ = leaf.anchors;
        }
      }
      node.eval_value = leaf.value;
    }
    if (check::validate_level() >= 1) {
      MP_CHECK_FINITE(leaf.value, "leaf value entering PUCT backup");
    }
    value_bounds_.update(leaf.value);
    for (const auto& [n, e] : leaf.path) {
      Edge& edge =
          nodes_[static_cast<std::size_t>(n)].edges[static_cast<std::size_t>(e)];
      edge.visits += 1;
      edge.total_value += leaf.value;
      value_bounds_.update(edge.mean_value());
    }
  }
  exploration_counter_ += static_cast<std::uint64_t>(batch);
}

void MctsPlacer::seed_path(const std::vector<int>& actions) {
  if (!replay(committed_)) return;
  int node_index = root_;
  std::vector<std::pair<int, int>> path;
  for (std::size_t k = committed_.size(); k < actions.size(); ++k) {
    if (env_.done()) break;
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    if (!node.expanded) {
      // Expanding consumes the env state *before* stepping.
      expand_and_evaluate(node_index);
      if (options_.leaf_evaluation == LeafEvaluation::kRandomRollout) {
        // The rollout advanced the environment; restore this node's state.
        std::vector<int> prefix(committed_);
        prefix.insert(prefix.end(), actions.begin() + static_cast<long>(committed_.size()),
                      actions.begin() + static_cast<long>(k));
        if (!replay(prefix)) return;
      }
    }
    Node& expanded = nodes_[static_cast<std::size_t>(node_index)];
    int edge_index = -1;
    for (std::size_t i = 0; i < expanded.edges.size(); ++i) {
      if (expanded.edges[i].action == actions[k]) {
        edge_index = static_cast<int>(i);
        break;
      }
    }
    if (edge_index < 0) return;  // seed action not legal here; abandon
    Edge& edge = expanded.edges[static_cast<std::size_t>(edge_index)];
    if (!env_.step(edge.action)) return;
    if (edge.child < 0) {
      edge.child = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      ++stats_.nodes_created;
    }
    path.emplace_back(node_index, edge_index);
    node_index = edge.child;
  }
  if (!env_.done()) return;
  const double value = expand_and_evaluate(node_index);  // cached terminal
  value_bounds_.update(value);
  const int visits = std::max(1, options_.seed_visits);
  for (const auto& [n, e] : path) {
    Edge& edge = nodes_[static_cast<std::size_t>(n)].edges[static_cast<std::size_t>(e)];
    edge.visits += visits;
    edge.total_value += value * visits;
    value_bounds_.update(edge.mean_value());
  }
}

MctsResult MctsPlacer::run() {
  const int total_steps = env_.num_steps();
  const int batch = std::max(1, options_.eval_batch);
  for (const std::vector<int>& seed : options_.seed_paths) seed_path(seed);
  bool cancelled = false;
  for (int t = 0; t < total_steps && !cancelled; ++t) {
    if (options_.auto_commit_forced && replay(committed_) && !env_.done()) {
      const std::vector<int> legal = env_.legal_actions();
      if (legal.size() == 1) {
        // Forced move: commit through the tree (keeping subtree reuse and
        // the committed-path replay consistent) without any exploration.
        Node& root = nodes_[static_cast<std::size_t>(root_)];
        int edge_index = -1;
        for (std::size_t i = 0; i < root.edges.size(); ++i) {
          if (root.edges[i].action == legal[0]) {
            edge_index = static_cast<int>(i);
            break;
          }
        }
        if (edge_index < 0) {
          Edge e;
          e.action = legal[0];
          e.prior = 1.0;
          root.edges.push_back(e);
          root.expanded = true;
          edge_index = static_cast<int>(root.edges.size()) - 1;
        }
        Edge& chosen = root.edges[static_cast<std::size_t>(edge_index)];
        committed_.push_back(chosen.action);
        if (chosen.child < 0) {
          chosen.child = static_cast<int>(nodes_.size());
          nodes_.push_back(Node{});
          ++stats_.nodes_created;
        }
        root_ = chosen.child;
        ++stats_.forced_moves;
        MP_OBS_COUNT("mcts.forced_moves", 1);
        MP_OBS_COUNT("mcts.moves", 1);
        continue;
      }
    }
    if (batch <= 1) {
      // Serial path: bit-identical to the pre-parallel implementation.
      for (int g = 0; g < options_.explorations_per_move; ++g) {
        if (options_.cancel.cancelled()) {
          cancelled = true;
          break;
        }
        explore();
      }
    } else {
      int remaining = options_.explorations_per_move;
      while (remaining > 0) {
        if (options_.cancel.cancelled()) {
          cancelled = true;
          break;
        }
        const int b = std::min(remaining, batch);
        run_batch(b);
        remaining -= b;
      }
      if (check::validate_level() >= 2) {
        // Every virtual visit must be drained before a move is committed —
        // a leak would permanently bias select_edge away from that line.
        for (const Node& node : nodes_) {
          for (const Edge& e : node.edges) {
            MP_CHECK_EQ(e.virtual_loss, 0,
                        "virtual loss drained after MCTS batch");
          }
        }
      }
    }
    if (cancelled) break;  // commit nothing on a cancelled move
    MP_OBS_COUNT("mcts.moves", 1);
    MP_OBS_HIST("mcts.tree_nodes_per_move", static_cast<double>(nodes_.size()));

    // Commit the most-visited root edge (ties by mean value, then prior).
    Node& root = nodes_[static_cast<std::size_t>(root_)];
    if (!root.expanded || root.edges.empty()) {
      // The root was never expanded (e.g. γ == 0); expand it now.
      if (replay(committed_)) expand_and_evaluate(root_);
    }
    Node& r = nodes_[static_cast<std::size_t>(root_)];
    if (r.edges.empty()) {
      util::log_error() << "mcts: no legal action at step " << t;
      break;
    }
    int best = 0;
    for (std::size_t i = 1; i < r.edges.size(); ++i) {
      const Edge& a = r.edges[i];
      const Edge& b = r.edges[static_cast<std::size_t>(best)];
      const bool better =
          a.visits > b.visits ||
          (a.visits == b.visits && a.mean_value() > b.mean_value()) ||
          (a.visits == b.visits && a.mean_value() == b.mean_value() &&
           a.prior > b.prior);
      if (better) best = static_cast<int>(i);
    }
    Edge& chosen = r.edges[static_cast<std::size_t>(best)];
    committed_.push_back(chosen.action);
    if (chosen.child < 0) {
      chosen.child = static_cast<int>(nodes_.size());
      nodes_.push_back(Node{});
      ++stats_.nodes_created;
    }
    root_ = chosen.child;  // subtree reuse
  }

  MctsResult result = stats_;
  result.cancelled = cancelled;
  if (replay(committed_) && env_.done()) {
    result.anchors = env_.anchors();
    result.committed_wirelength = evaluator_.evaluate(result.anchors);
    result.wirelength = result.committed_wirelength;
  } else {
    if (!cancelled) util::log_error() << "mcts: final allocation incomplete";
    result.committed_wirelength = std::numeric_limits<double>::infinity();
    result.wirelength = result.committed_wirelength;
  }
  // The search evaluates many complete allocations (terminal leaves, seed
  // lines); return the best one when it beats the traced path.
  if (best_terminal_wirelength_ < result.wirelength &&
      !best_terminal_anchors_.empty()) {
    result.anchors = best_terminal_anchors_;
    result.wirelength = best_terminal_wirelength_;
  }
  result.reward = std::isfinite(result.wirelength)
                      ? reward_(result.wirelength)
                      : -std::numeric_limits<double>::infinity();
  MP_OBS_GAUGE("mcts.tree_nodes", static_cast<double>(nodes_.size()));
  MP_OBS_GAUGE("mcts.value_bound_lo", value_bounds_.lo);
  MP_OBS_GAUGE("mcts.value_bound_hi", value_bounds_.hi);
  env_.reset();
  return result;
}

}  // namespace mp::mcts
