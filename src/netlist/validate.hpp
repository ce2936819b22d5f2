#pragma once
// Design sanity validation: structural checks a reader/generator/placer can
// run before and after operating on a design.  Returns human-readable issue
// descriptions instead of aborting, so callers can decide severity.

#include <string>
#include <vector>

#include "netlist/design.hpp"

namespace mp::netlist {

struct ValidationOptions {
  bool check_macro_overlap = false;      ///< only meaningful post-legalization
  bool check_connectivity = true;        ///< no dangling single-pin nets etc.
  double overlap_tolerance = 1e-9;       ///< relative to region area
};

struct ValidationReport {
  std::vector<std::string> errors;    ///< structural problems
  std::vector<std::string> warnings;  ///< suspicious but workable

  bool ok() const { return errors.empty(); }
};

/// Validates `design`:
///   errors   — nets referencing out-of-range nodes, non-positive node
///              dimensions, zero-area placement region, duplicate pins on a
///              net referencing the same node at the same offset;
///   warnings — single-pin nets, disconnected movable macros, non-pad nodes
///              outside the region, macro overlap above the tolerance (when
///              enabled).
ValidationReport validate_design(const Design& design,
                                 const ValidationOptions& options = {});

}  // namespace mp::netlist
