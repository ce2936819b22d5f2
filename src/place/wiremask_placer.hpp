#pragma once
// Wiremask greedy placer — the MaskPlace [19] stand-in for Table III.
// After an analytical placement of the std cells, movable macros are placed
// one by one (largest first) on a fine grid; for every candidate position the
// *exact incremental HPWL* of the macro's nets is computed from the bounding
// boxes of the already-placed pins (the "wiremask" idea), and the cheapest
// non-overflowing position wins.

#include <cstdint>

#include "place/flow.hpp"

namespace mp::place {

struct WiremaskOptions {
  int grid_dim = 32;               ///< candidate grid resolution
  std::size_t max_net_degree = 64; ///< ignore larger nets in the mask
  gp::GlobalPlaceOptions initial_gp = mixed_size_gp(8);
  gp::GlobalPlaceOptions final_gp;
  legal::MacroLegalizeOptions legalize;
};

}  // namespace mp::place
