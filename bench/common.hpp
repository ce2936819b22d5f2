#pragma once
// Shared plumbing for the reproduction benches: scale knobs, option presets
// and table formatting.
//
// Every bench honors:
//   REPRO_SCALE        in (0,1]  — global shrink factor applied to std-cell/
//                                  net counts AND episode/exploration budgets
//                                  (default 1 = the committed bench defaults).
//   REPRO_MACRO_SCALE  in (0,1]  — shrink factor for *macro* counts; the
//                                  committed default 0.25 keeps CPU runtimes
//                                  in minutes.  Set 1 for the published macro
//                                  counts (hours on CPU, as in the paper).
//   REPRO_EPISODES, REPRO_GAMMA, REPRO_CHANNELS, REPRO_BLOCKS — direct
//                                  overrides of the RL/MCTS budgets.
// The committed outputs (EXPERIMENTS.md) use the defaults.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <cstdlib>
#include <cstring>

#include "artifact.hpp"
#include "benchgen/presets.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "place/placer.hpp"
#include "util/env.hpp"

namespace mp::bench {

/// Thread-count convention shared by every bench driver: `--threads N` (or
/// `--threads=N`) beats the MP_THREADS environment variable, which beats
/// hardware concurrency.  Call first thing in main(); without the flag the
/// par:: pool resolves MP_THREADS lazily on first use.
inline void init_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      par::set_num_threads(std::atoi(argv[i + 1]));
      return;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      par::set_num_threads(std::atoi(argv[i] + 10));
      return;
    }
  }
}

inline double scale() { return util::repro_scale(); }

inline double macro_scale() {
  const double s = util::env_double("REPRO_MACRO_SCALE", 0.25);
  return std::clamp(s, 0.01, 1.0);
}

/// Applies macro scaling to a preset spec (cells/nets already scaled by the
/// caller via the preset's `scale` argument).
inline benchgen::BenchSpec scale_macros(benchgen::BenchSpec spec) {
  const double ms = macro_scale();
  spec.movable_macros =
      std::max(4, static_cast<int>(spec.movable_macros * ms));
  spec.preplaced_macros = static_cast<int>(spec.preplaced_macros * ms);
  return spec;
}

/// Cell/net scale for the big table benches (the published counts run for
/// hours through a CPU QP placer; 3% preserves ordering and structure).
inline double cell_scale() {
  return std::clamp(0.03 * scale(), 0.001, 1.0);
}

/// RL/MCTS budgets used by the table benches.
struct Budgets {
  int episodes;
  int calibration;
  int gamma;
  int channels;
  int blocks;
};

inline Budgets budgets() {
  Budgets b;
  b.episodes = util::env_int("REPRO_EPISODES",
                             std::max(6, static_cast<int>(24 * scale())));
  b.calibration = std::max(5, b.episodes / 3);
  b.gamma = util::env_int("REPRO_GAMMA",
                          std::max(6, static_cast<int>(32 * scale())));
  b.channels = util::env_int("REPRO_CHANNELS", 24);
  b.blocks = util::env_int("REPRO_BLOCKS", 2);
  return b;
}

/// Leaf-evaluation mode for the benches.  Default is the QP partial-
/// placement completion estimate: at the scaled-down CPU training budgets
/// the value network is under-trained and the paper's pure value-network
/// evaluation degenerates (see DESIGN.md "Substitutions" and the ablation
/// bench).  REPRO_LEAF=value|partial|rollout overrides.
inline mcts::LeafEvaluation leaf_evaluation() {
  const char* raw = std::getenv("REPRO_LEAF");
  if (raw != nullptr) {
    if (std::strcmp(raw, "value") == 0) return mcts::LeafEvaluation::kValueNetwork;
    if (std::strcmp(raw, "rollout") == 0) return mcts::LeafEvaluation::kRandomRollout;
  }
  return mcts::LeafEvaluation::kPartialPlacement;
}

inline place::MctsRlOptions default_flow_options() {
  const Budgets b = budgets();
  place::MctsRlOptions o;
  o.flow.grid_dim = 16;  // paper ζ
  o.flow.initial_gp.max_iterations = 6;
  o.flow.final_gp.max_iterations = 8;
  o.agent.channels = b.channels;
  o.agent.res_blocks = b.blocks;
  o.train.episodes = b.episodes;
  o.train.update_window = std::min(30, std::max(3, b.episodes / 4));
  o.train.calibration_episodes = b.calibration;
  o.mcts.explorations_per_move = b.gamma;
  o.mcts.leaf_evaluation = leaf_evaluation();
  // Benches batch leaf evaluations to the pool size (0 = auto), so their
  // search, unlike self-play, depends on --threads; at --threads 1 this
  // resolves to the serial search (eval_batch 1).
  o.mcts.eval_batch = 0;
  return o;
}

/// Prints "name  v1  v2 ..." rows with a fixed-width first column.
inline void print_row(const std::string& name,
                      const std::vector<double>& values) {
  std::printf("%-8s", name.c_str());
  for (double v : values) std::printf("  %12.4g", v);
  std::printf("\n");
}

inline void print_header(const std::string& first,
                         const std::vector<std::string>& columns) {
  std::printf("%-8s", first.c_str());
  for (const std::string& c : columns) std::printf("  %12s", c.c_str());
  std::printf("\n");
}

/// Bench table that prints paper-style rows to stdout AND mirrors them as
/// one machine-readable JSONL object through obs::ReportWriter (MP_OBS_OUT)
/// when telemetry is enabled — benches stay scrapable by eye and by tooling
/// (scripts/obs_summary.py) at the same time.  The JSON artifact is written
/// when the table goes out of scope.  With MP_BENCH_JSON set (truthy;
/// scripts/run_benches.sh sets it) the destructor additionally writes a
/// BENCH_<bench>.json perf artifact (bench/artifact.hpp) flattening each
/// cell to a "row.column" metric.
class Table {
 public:
  Table(std::string bench, const std::string& first,
        std::vector<std::string> columns)
      : bench_(std::move(bench)), columns_(std::move(columns)) {
    print_header(first, columns_);
  }

  void row(const std::string& name, const std::vector<double>& values) {
    print_row(name, values);
    rows_.emplace_back(name, values);
    std::fflush(stdout);
  }

  ~Table() {
    const char* bench_json = std::getenv("MP_BENCH_JSON");
    if (bench_json != nullptr && bench_json[0] != '\0' &&
        std::strcmp(bench_json, "0") != 0) {
      BenchArtifact artifact;
      artifact.name = bench_;
      artifact.config["repro_scale"] = scale();
      artifact.config["repro_macro_scale"] = macro_scale();
      for (const auto& [name, values] : rows_) {
        for (std::size_t c = 0; c < values.size() && c < columns_.size(); ++c) {
          artifact.metrics[name + "." + columns_[c]] = values[c];
        }
      }
      artifact.write();
    }
    if (!obs::enabled()) return;
    obs::ReportWriter writer = obs::ReportWriter::from_env();
    if (writer.valid()) writer.write_table(bench_, columns_, rows_);
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

 private:
  std::string bench_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

/// Normalized geomean row (paper's "Nor." row): each column's geometric mean
/// of ratio vs the reference column.
inline std::vector<double> normalized_row(
    const std::vector<std::vector<double>>& rows, std::size_t reference) {
  if (rows.empty()) return {};
  const std::size_t cols = rows.front().size();
  std::vector<double> out(cols, 0.0);
  for (std::size_t c = 0; c < cols; ++c) {
    double log_sum = 0.0;
    int n = 0;
    for (const auto& row : rows) {
      if (row[c] > 0.0 && row[reference] > 0.0) {
        log_sum += std::log(row[c] / row[reference]);
        ++n;
      }
    }
    out[c] = n > 0 ? std::exp(log_sum / n) : 0.0;
  }
  return out;
}

}  // namespace mp::bench
