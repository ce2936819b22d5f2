#pragma once
// Analytical mixed-size baseline — the RePlAce [10] / DREAMPlace [25]
// stand-in (Tables II-III): one mixed-size global placement moves macros and
// cells together, macros are legalized flat, cells are re-placed with macros
// fixed.

#include "place/flow.hpp"

namespace mp::place {

struct AnalyticOptions {
  gp::GlobalPlaceOptions mixed_gp = mixed_size_gp(16);
  gp::GlobalPlaceOptions final_gp;
  legal::MacroLegalizeOptions legalize;
};

}  // namespace mp::place
