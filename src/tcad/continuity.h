#pragma once

/// \file continuity.h
/// Steady-state carrier continuity with Scharfetter–Gummel fluxes:
/// div J_n = +q R, div J_p = -q R, with SRH recombination (denominator
/// lagged so each solve is a single banded linear system).

#include <cstddef>
#include <memory>
#include <vector>

#include "physics/mobility.h"
#include "tcad/device_structure.h"
#include "tcad/solver_status.h"

namespace subscale::obs {
class SpanProfiler;
}  // namespace subscale::obs

namespace subscale::linalg {
class BandedMatrix;
}  // namespace subscale::linalg

namespace subscale::tcad {

struct ContinuityOptions {
  double tau_srh = 1e-7;       ///< SRH lifetime [s] (both carriers)
  bool velocity_saturation = true;  ///< Caughey–Thomas edge mobility
  /// Assemble in Slotboom variables (n = ni e^{psi/vt} u, p = ni
  /// e^{-psi/vt} v) instead of raw densities. The SG flux becomes
  /// symmetric in u/v and the assembly is exact at equilibrium (u = v
  /// = 1 identically), which makes this a genuinely independent
  /// discretization of the same physics — the equivalence tier runs it
  /// against the raw-density path as a differential check of the SG
  /// assembly. It is NOT an accuracy upgrade: the solver's ~1e-6
  /// subthreshold current noise comes from the contact-flux
  /// evaluation (a 1e9 gross/net cancellation) and is unchanged by the
  /// variable choice, while at high bias the e^{psi/vt} weights span
  /// the full psi range and degrade the linear systems' conditioning
  /// enough to stall tight-tolerance ramps above ~1V. Off by default:
  /// the raw-density path reproduces the seed solver bitwise.
  bool slotboom = false;
};

struct ContinuityResult {
  SolveStatus status = SolveStatus::kConverged;
  std::size_t non_finite_nodes = 0;  ///< NaN/Inf densities from the solve
  double max_density = 0.0;          ///< max over silicon nodes [1/m^3]
};

/// Reusable assembly state for solve_continuity, bound to one device.
/// Edge geometry (distance, area, silicon-edge flags) and the
/// zero-field Masetti mobilities depend only on the mesh, material map
/// and doping — never on the Gummel iterate — so one workspace computes
/// them once and amortizes them over the hundreds of continuity solves
/// an I-V ramp performs on that device. The band-matrix and rhs buffers
/// are recycled between calls (zero + refill is bitwise-identical to
/// fresh construction, and every row is rewritten each assembly), and
/// the matrix is factored in place with the pivots and row scales kept
/// here too, so a solve allocates nothing. A singular system throws from
/// the factorization with the matrix partly factored; the next assembly
/// rewrites it, so the workspace stays usable. Passing a workspace
/// changes no arithmetic: results are bitwise-identical to the
/// workspace-free path.
class SgWorkspace {
 public:
  SgWorkspace();
  ~SgWorkspace();
  SgWorkspace(SgWorkspace&&) noexcept;
  SgWorkspace& operator=(SgWorkspace&&) noexcept;

 private:
  friend ContinuityResult solve_continuity(
      const DeviceStructure&, physics::Carrier, const std::vector<double>&,
      const std::vector<double>&, std::vector<double>&,
      const ContinuityOptions&, obs::SpanProfiler*, SgWorkspace*);

  struct Edge {
    std::size_t nb = 0;    ///< neighbour node index
    double dist = 0.0;     ///< node spacing [m]
    double area = 0.0;     ///< flux cross-section [m]
    double mu_n0 = 0.0;    ///< zero-field Masetti mobility, electrons
    double mu_p0 = 0.0;    ///< zero-field Masetti mobility, holes
    bool active = false;   ///< edge exists and both ends are silicon
  };

  void bind(const DeviceStructure& dev);

  const DeviceStructure* dev_ = nullptr;  ///< device the cache describes
  std::vector<Edge> edges_;               ///< 4 slots (W,E,S,N) per node
  std::unique_ptr<linalg::BandedMatrix> a_;
  std::vector<double> rhs_;
  std::vector<std::size_t> ipiv_;  ///< LU row interchanges
  std::vector<double> row_scale_;  ///< LU row equilibration
  std::vector<double> w_;  ///< Slotboom weights scratch
};

/// Solve the electron (or hole) continuity equation for the density
/// field, given the electrostatic potential. The opposite carrier's
/// density enters the (lagged) SRH term. Results are clamped positive.
/// A non-finite linear-solve output (degenerate potential, singular
/// pivot) is reported via the result instead of being propagated as
/// garbage currents; the offending nodes are reset to the density floor.
/// A non-null `profiler` records the "linalg.banded_lu.solve" span of
/// the single banded solve. A non-null `workspace` reuses cached
/// geometry/mobility tables and assembly buffers across calls (see
/// SgWorkspace); it is rebound automatically if `dev` changes.
ContinuityResult solve_continuity(const DeviceStructure& dev,
                                  physics::Carrier carrier,
                                  const std::vector<double>& psi,
                                  const std::vector<double>& other_density,
                                  std::vector<double>& density,
                                  const ContinuityOptions& options = {},
                                  obs::SpanProfiler* profiler = nullptr,
                                  SgWorkspace* workspace = nullptr);

/// Scharfetter–Gummel edge current (per metre of device width) flowing
/// from node a to node b for the given carrier [A/m]. Used both by the
/// assembly and by terminal-current integration.
double edge_current(const DeviceStructure& dev, physics::Carrier carrier,
                    const std::vector<double>& psi,
                    const std::vector<double>& density, std::size_t node_a,
                    std::size_t node_b, double dist, double area,
                    const ContinuityOptions& options = {});

/// Edge mobility used by both routines [m^2/Vs].
double edge_mobility(const DeviceStructure& dev, physics::Carrier carrier,
                     const std::vector<double>& psi, std::size_t node_a,
                     std::size_t node_b, double dist,
                     const ContinuityOptions& options);

}  // namespace subscale::tcad
