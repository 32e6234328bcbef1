#pragma once

/// \file poisson.h
/// Nonlinear Poisson solver on the device structure: box-method
/// discretization of div(eps grad psi) = -q (p - n + N) with Boltzmann
/// carriers evaluated from frozen quasi-Fermi potentials (the inner
/// problem of a Gummel iteration). Dirichlet at contacts, natural
/// Neumann elsewhere; solved with damped Newton and a symmetric banded
/// LDLᵀ factorization (bandwidth = TensorMesh2d::bandwidth(),
/// min(nx, ny)).

#include <map>
#include <string>
#include <vector>

#include "tcad/device_structure.h"
#include "tcad/solver_status.h"

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::tcad {

/// The Newton budget, step clamp and divergence guard are constants in
/// poisson.cpp; the stop tolerance stays a setting because mesh
/// continuation relaxes it on its coarse levels.
struct PoissonOptions {
  double update_tolerance = 1e-9;  ///< on max |delta psi| [V]
};

struct PoissonResult {
  std::size_t iterations = 0;
  double max_update = 0.0;
  bool converged = false;
  /// kStalled on iteration exhaustion; kDiverged / kNonFinite when the
  /// guards fire (the potential is then unusable — callers must restore
  /// a known-good state rather than propagate it).
  SolveStatus status = SolveStatus::kStalled;
};

/// Solve for psi in place. `biases` maps contact name -> applied voltage.
/// phi_n/phi_p are per-node quasi-Fermi potentials (used in silicon).
/// A non-null `profiler` records one "linalg.banded_ldlt.solve" span per
/// Newton iteration (the direct-solver leaf of the TCAD span tree).
PoissonResult solve_poisson(const DeviceStructure& dev,
                            const std::map<std::string, double>& biases,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options = {},
                            obs::SpanProfiler* profiler = nullptr);

/// Boltzmann carrier densities from the potential and quasi-Fermi level,
/// with overflow-safe exponent clamping. Exposed for the Gummel loop.
double boltzmann_n(double psi, double phi_n, double ni, double vt);
double boltzmann_p(double psi, double phi_p, double ni, double vt);

}  // namespace subscale::tcad
