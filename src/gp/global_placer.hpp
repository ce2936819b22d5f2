#pragma once
// Analytical mixed-size global placer: quadratic wirelength solves
// interleaved with look-ahead spreading (histogram equalization along bin
// rows/columns, SimPL-style) whose targets are fed back as anchor springs of
// growing weight.  Serves three roles in the reproduction:
//   * DREAMPlace [25] stand-in — full cell placement + wirelength measurement
//     after macros are fixed (Sec. II-C),
//   * RePlAce [10] stand-in — mixed-size analytical baseline (Table III),
//   * the initial placement required by the clustering stage (Sec. II-A).

#include "netlist/design.hpp"
#include "qp/quadratic.hpp"
#include "util/cancel.hpp"

namespace mp::gp {

struct GlobalPlaceOptions {
  /// Spreading rounds (each is: density eval → 1-D remap → anchored QP).
  int max_iterations = 16;
  /// Stop when the overflow ratio drops below this.
  double overflow_target = 0.08;
  /// Bin-grid resolution; 0 picks sqrt(#movable)/2 clamped to [8, 128].
  int bins = 0;
  /// Fraction of a bin a cell may fill.
  double target_density = 0.9;
  /// Anchor spring weight of the first spreading round (relative to typical
  /// net weight 1); multiplied by `anchor_growth` each round.
  double anchor_weight = 0.02;
  double anchor_growth = 1.6;
  /// When true, movable macros spread together with cells (mixed-size mode —
  /// the RePlAce-like baseline); when false only std cells move and all
  /// macros are treated as fixed obstacles (cell placement mode).
  bool move_macros = false;
  qp::QpOptions qp;
  /// Cooperative cancellation, polled at spreading-round boundaries: a
  /// cancelled run stops after the current round's anchored QP (positions
  /// stay finite and consistent).  An inert or never-triggered token leaves
  /// results bit-identical.
  util::CancelToken cancel;
};

struct GlobalPlaceResult {
  double hpwl = 0.0;
  double overflow_ratio = 0.0;
  int iterations = 0;
  bool cancelled = false;  ///< stopped early via GlobalPlaceOptions::cancel
};

/// Runs global placement in place.  Moves std cells (and movable macros when
/// options.move_macros) — pads and fixed nodes never move.
GlobalPlaceResult global_place(netlist::Design& design,
                               const GlobalPlaceOptions& options = {});

}  // namespace mp::gp
