#include "place/detail.hpp"

#include "util/log.hpp"

namespace mp::place {

namespace detail {

PlaceResult analytic_place(netlist::Design& design,
                           const AnalyticOptions& options) {
  PlaceResult result;
  gp::global_place(design, options.mixed_gp);
  legal::legalize_flat(design, options.legalize);
  result.hpwl = place_cells_and_measure(design, options.final_gp);
  util::log_info() << "analytic_place: hpwl=" << result.hpwl;
  return result;
}

}  // namespace detail

}  // namespace mp::place
