#pragma once

/// \file continuity.h
/// Steady-state carrier continuity with Scharfetter–Gummel fluxes:
/// div J_n = +q R, div J_p = -q R, with SRH recombination (denominator
/// lagged so each solve is a single banded linear system). Edge
/// mobilities are Masetti (doping) degraded by Caughey–Thomas velocity
/// saturation along the edge.

#include <cstddef>
#include <memory>
#include <vector>

#include "mesh/mesh2d.h"
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

inline constexpr double kTauSrh = 1e-7;  ///< SRH lifetime [s], both carriers

struct ContinuityResult {
  SolveStatus status = SolveStatus::kConverged;
  std::size_t non_finite_nodes = 0;  ///< NaN/Inf densities from the solve
  /// Finite densities below the floor (1e-20 n_i) that it raised; 0 on
  /// every paper device, whose systems are M-matrices (DESIGN §23.1).
  std::size_t clamped_nodes = 0;
  double max_density = 0.0;          ///< max over silicon nodes [1/m^3]
  /// Band storage the LU covered, rows x (kl + ku + 1).
  std::size_t band_entries = 0;
};

/// The rows of every continuity system: the silicon nodes that are not
/// contacts, in mesh order. Oxide nodes carry no carriers and contact
/// nodes hold their ohmic densities, so neither is an unknown.
mesh::RowMap continuity_rows(const DeviceStructure& dev);

/// Reusable assembly state for solve_continuity, bound to one device.
/// The row map (continuity_rows), each row's box area, each contact
/// node's ohmic densities, edge geometry (distance, area) and the
/// zero-field Masetti mobilities depend only on the mesh, material map
/// and doping — never on the Gummel iterate — so one workspace computes
/// them once and amortizes them over the hundreds of continuity solves
/// an I-V ramp performs on that device. Each silicon edge a flux row
/// uses is stored once, and each solve evaluates its field-dependent
/// coefficients k B(+-dpsi) once for both endpoint rows. The Bernoulli
/// pairs B(+-dpsi) depend on psi alone, so the workspace keeps them
/// with the exact bytes of the psi they were computed at, and a solve
/// at those bytes (the hole solve that follows the electron solve)
/// reuses them; a memo of a pure function cannot make a result depend
/// on the path that led to it. The band-matrix, rhs and coefficient
/// buffers are recycled between calls
/// (zero + refill is bitwise-identical to fresh construction, and every
/// row is rewritten each assembly), and the matrix, one row per unknown
/// and kl + ku + 1 band rows with no pivots, is factored in place, so a
/// solve allocates nothing. A zero or non-finite pivot fails the solve
/// as kNonFinite with the matrix partly factored; the next assembly
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
      const std::vector<double>&, std::vector<double>&, obs::SpanProfiler*,
      SgWorkspace*);

  /// A silicon edge from node a to its E or N neighbour b.
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    double dist = 0.0;     ///< node spacing [m]
    double area = 0.0;     ///< flux cross-section [m]
    double mu_n0 = 0.0;    ///< zero-field Masetti mobility, electrons
    double mu_p0 = 0.0;    ///< zero-field Masetti mobility, holes
  };
  static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

  void bind(const DeviceStructure& dev);

  const DeviceStructure* dev_ = nullptr;  ///< device the cache describes
  mesh::RowMap rows_;        ///< continuity_rows(*dev_)
  std::vector<double> box_;  ///< per row, its control-volume area
  /// Per node, the ohmic electron and hole densities at a contact, 0
  /// elsewhere.
  std::vector<double> ohmic_n_;
  std::vector<double> ohmic_p_;
  std::vector<Edge> edges_;  ///< edges with at least one flux-row end
  /// 4 slots (W, E, S, N) per row: the edges_ index or kNoEdge. A
  /// node is the a end of its E and N edges and the b end of W and S.
  std::vector<std::size_t> slot_edge_;
  /// Per edge, B(dpsi) and B(-dpsi) with dpsi = (psi_b - psi_a) / v_t,
  /// at pairs_psi_; pairs_psi_ is empty until the first solve.
  std::vector<double> b_ab_;
  std::vector<double> b_ba_;
  std::vector<double> pairs_psi_;
  /// Per edge, this solve's k B(dpsi) and k B(-dpsi).
  std::vector<double> kb_ab_;
  std::vector<double> kb_ba_;
  std::unique_ptr<linalg::BandedMatrix> a_;
  std::vector<double> rhs_;
};

/// Solve the electron (or hole) continuity equation for the density
/// field, given the electrostatic potential. The opposite carrier's
/// density enters the (lagged) SRH term. The system has one row per
/// continuity_rows unknown (DESIGN §29): the ohmic-contact densities are
/// known, so a contact neighbour's term moves to the right-hand side,
/// and oxide nodes take no flux. It is column-diagonally dominant and
/// goes through the unpivoted banded LU (DESIGN §23.1). Afterwards each
/// contact node holds its ohmic density and each oxide node 0. Results
/// are clamped at a positive floor, and each density the floor raises is
/// counted in clamped_nodes.
/// Neither failure below throws or propagates garbage currents; both
/// report kNonFinite. A factorization that meets a zero or non-finite
/// pivot (a NaN potential) leaves `density` as it came in; a non-finite
/// entry in the solution resets that node to the density floor and
/// counts it in non_finite_nodes.
/// A non-null `profiler` records the "linalg.banded_lu.solve" span of
/// the single banded solve. A non-null `workspace` reuses cached
/// geometry/mobility tables and assembly buffers across calls (see
/// SgWorkspace); it is rebound automatically if `dev` changes.
ContinuityResult solve_continuity(const DeviceStructure& dev,
                                  physics::Carrier carrier,
                                  const std::vector<double>& psi,
                                  const std::vector<double>& other_density,
                                  std::vector<double>& density,
                                  obs::SpanProfiler* profiler = nullptr,
                                  SgWorkspace* workspace = nullptr);

/// Scharfetter–Gummel edge current (per metre of device width) flowing
/// from node a to node b for the given carrier [A/m], as the terminal-
/// current integration sums it. The assembly does not call it: it forms
/// each edge's coefficients once per solve in SgWorkspace (DESIGN.md
/// §21.3) from the same Masetti and Caughey–Thomas mobility.
double edge_current(const DeviceStructure& dev, physics::Carrier carrier,
                    const std::vector<double>& psi,
                    const std::vector<double>& density, std::size_t node_a,
                    std::size_t node_b, double dist, double area);

/// Edge mobility edge_current uses [m^2/Vs].
double edge_mobility(const DeviceStructure& dev, physics::Carrier carrier,
                     const std::vector<double>& psi, std::size_t node_a,
                     std::size_t node_b, double dist);

}  // namespace subscale::tcad
