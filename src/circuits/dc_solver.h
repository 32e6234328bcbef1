#pragma once

/// \file dc_solver.h
/// Nonlinear DC operating-point solver: damped Newton on the KCL
/// residuals of the free nodes (the standard SPICE formulation restricted
/// to this library's element set).

#include <vector>

#include "circuits/netlist.h"

namespace subscale::circuits {

struct DcResult {
  /// Full voltage vector indexed by NodeId (fixed nodes hold their value).
  std::vector<double> voltages;
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Solve the DC operating point. `initial_guess`, if non-empty, must have
/// one entry per node; free-node entries seed the Newton iteration.
DcResult solve_dc(const Circuit& circuit,
                  const std::vector<double>& initial_guess = {});

/// Total current delivered by a fixed node (rail) at the given solution:
/// the current flowing out of the rail into the devices [A]. Useful for
/// leakage accounting.
double rail_current(const Circuit& circuit, NodeId rail,
                    const std::vector<double>& voltages);

}  // namespace subscale::circuits
