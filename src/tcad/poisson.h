#pragma once

/// \file poisson.h
/// Nonlinear Poisson solver on the device structure: box-method
/// discretization of div(eps grad psi) = -q (p - n + N) with Boltzmann
/// carriers evaluated from frozen quasi-Fermi potentials (the inner
/// problem of a Gummel iteration). Dirichlet at contacts, natural
/// Neumann elsewhere; solved with damped Newton and a symmetric banded
/// LDLᵀ factorization over the nodes that are not contacts
/// (poisson_rows, whose band is at most TensorMesh2d::bandwidth()).

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "mesh/mesh2d.h"
#include "tcad/device_structure.h"
#include "tcad/solver_status.h"

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::linalg {
class SymmetricBandedMatrix;
}  // namespace subscale::linalg

namespace subscale::tcad {

/// The Newton budget, step clamp and divergence guard are constants in
/// poisson.cpp; the stop tolerance stays a setting because mesh
/// continuation relaxes it on its coarse levels.
struct PoissonOptions {
  double update_tolerance = 1e-9;  ///< on max |delta psi| [V]
};

struct PoissonResult {
  std::size_t iterations = 0;
  std::size_t factorizations = 0;  ///< LDLᵀ factorizations attempted
  /// Band storage those factorizations covered, rows x (kl + 1) each.
  std::size_t band_entries = 0;
  double max_update = 0.0;
  bool converged = false;
  /// kStalled on iteration exhaustion; kDiverged / kNonFinite when the
  /// guards fire (the potential is then unusable — callers must restore
  /// a known-good state rather than propagate it).
  SolveStatus status = SolveStatus::kStalled;
};

class PoissonWorkspace;

/// The rows of Poisson's Newton system: every node that is not a
/// contact, in mesh order. A contact's potential is imposed, so it is
/// not an unknown.
mesh::RowMap poisson_rows(const DeviceStructure& dev);

/// Solve for psi in place, each contact held at its voltage in `bias`.
/// phi_n/phi_p are per-node quasi-Fermi potentials (used in silicon).
/// A non-null `profiler` records one "linalg.banded_ldlt.solve" span per
/// Newton iteration (the direct-solver leaf of the TCAD span tree). A
/// non-null `workspace` reuses its row map, stencil, contact map and
/// buffers across calls (see PoissonWorkspace); it is rebound
/// automatically if `dev` changes.
PoissonResult solve_poisson(const DeviceStructure& dev,
                            const BiasPoint& bias,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options = {},
                            obs::SpanProfiler* profiler = nullptr,
                            PoissonWorkspace* workspace = nullptr);

/// Reusable state for solve_poisson, bound to one device. The row map
/// (poisson_rows), each row's stencil (edge conductances eps*area/dist,
/// the charge prefactor q*box and the net doping) and the contact map
/// depend only on the mesh, material map and doping, never on the
/// iterate, so one workspace builds them once and amortizes them over
/// every Poisson call of the device's Gummel solves. The Jacobian and
/// right-hand-side buffers, one row per unknown, are recycled between
/// calls.
///
/// The workspace also holds the last factored Jacobian and the psi,
/// phi_n and phi_p it was assembled at. A Newton iteration reuses that
/// factor while every free silicon node's three potentials are within
/// kJacobianReuseDrift (poisson.cpp) of those anchor values, across
/// calls too, and otherwise assembles, factors and re-anchors (a chord
/// step; DESIGN §28). The residual is assembled every iteration. A
/// factorization that fails leaves no factor held. The result of a call
/// therefore depends on the factor the workspace holds: a caller that
/// needs a path-independent answer drops it first (DriftDiffusionSolver
/// does at the start of every Gummel solve).
class PoissonWorkspace {
 public:
  PoissonWorkspace();
  ~PoissonWorkspace();
  PoissonWorkspace(PoissonWorkspace&&) noexcept;
  PoissonWorkspace& operator=(PoissonWorkspace&&) noexcept;

  /// Forget the held factor: the next Newton iteration factors afresh.
  void drop_factor() { factored_ = false; }

 private:
  friend PoissonResult solve_poisson(const DeviceStructure&,
                                     const BiasPoint&,
                                     const std::vector<double>&,
                                     const std::vector<double>&,
                                     std::vector<double>&,
                                     const PoissonOptions&,
                                     obs::SpanProfiler*, PoissonWorkspace*);

  /// One row's box-method stencil.
  struct RowStencil {
    std::array<std::size_t, 4> nb{};  ///< west, east, south, north nodes
    std::array<std::size_t, 4> col{};  ///< their rows, kNoRow at contacts
    std::array<double, 4> k{};  ///< edge conductances (0 = no edge)
    std::array<char, 4> has{};
    double qbox = 0.0;    ///< q * box_area, 0 for non-silicon nodes
    double doping = 0.0;  ///< net doping [1/m^3]
  };

  void bind(const DeviceStructure& dev);
  /// True when a factor is held and every free silicon node's psi,
  /// phi_n and phi_p is within kJacobianReuseDrift of its anchor.
  bool factor_fits(const std::vector<double>& psi,
                   const std::vector<double>& phi_n,
                   const std::vector<double>& phi_p) const;
  /// Record the state the Jacobian was just assembled and factored at.
  void anchor(const std::vector<double>& psi,
              const std::vector<double>& phi_n,
              const std::vector<double>& phi_p);

  const DeviceStructure* dev_ = nullptr;  ///< device the cache describes
  mesh::RowMap rows_;                  ///< poisson_rows(*dev_)
  std::vector<RowStencil> stencil_;    ///< per row
  std::vector<std::string> contacts_;  ///< contacts that own nodes
  std::unique_ptr<linalg::SymmetricBandedMatrix> jac_;
  std::vector<double> rhs_;
  /// The silicon rows' nodes: the rows whose Jacobian entry moves with
  /// the state (oxide rows are constant).
  std::vector<std::size_t> free_silicon_;
  bool factored_ = false;  ///< jac_ holds a factor of the anchored state
  /// psi, phi_n, phi_p per free_silicon_ node, interleaved.
  std::vector<double> anchor_;
};

/// Boltzmann carrier densities from the potential and quasi-Fermi level,
/// with overflow-safe exponent clamping. Exposed for the Gummel loop.
double boltzmann_n(double psi, double phi_n, double ni, double vt);
double boltzmann_p(double psi, double phi_p, double ni, double vt);

}  // namespace subscale::tcad
