#pragma once
// Simulated-annealing macro placer — the stand-in for the simulated-
// evolution (SE) macro placer of [26] used in Table II.  Std cells are first
// placed analytically; the annealer then moves/swaps movable macros
// minimizing the HPWL of macro-incident nets plus an overlap penalty, and
// the result is legalized (sequence pair + LP) before final cell placement.

#include <cstdint>

#include "place/flow.hpp"

namespace mp::place {

struct SaOptions {
  int iterations = 20000;
  /// Initial acceptance probability for uphill moves (temperature is
  /// calibrated from sampled move deltas).
  double initial_acceptance = 0.8;
  double cooling = 0.97;         ///< geometric factor applied per batch
  int batch = 200;               ///< moves per temperature step
  double swap_probability = 0.2; ///< vs displacement
  double overlap_weight = -1.0;  ///< <0: auto (scales with HPWL magnitude)
  std::uint64_t seed = 11;
  gp::GlobalPlaceOptions initial_gp = mixed_size_gp(8);
  gp::GlobalPlaceOptions final_gp;
  legal::MacroLegalizeOptions legalize;
};

}  // namespace mp::place
