#include "tcad/poisson.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "linalg/banded.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "physics/constants.h"

namespace subscale::tcad {

namespace {

constexpr double kMaxExponent = 200.0;

constexpr std::size_t kMaxNewtonIterations = 120;
constexpr double kDampingClamp = 0.1;  ///< max |delta psi| per step [V]
constexpr double kDivergenceThreshold = 50.0;  ///< max |psi| [V]

double clamped_exp(double x) {
  return std::exp(std::clamp(x, -kMaxExponent, kMaxExponent));
}

}  // namespace

double boltzmann_n(double psi, double phi_n, double ni, double vt) {
  return ni * clamped_exp((psi - phi_n) / vt);
}

double boltzmann_p(double psi, double phi_p, double ni, double vt) {
  return ni * clamped_exp((phi_p - psi) / vt);
}

PoissonResult solve_poisson(const DeviceStructure& dev,
                            const std::map<std::string, double>& biases,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options,
                            obs::SpanProfiler* profiler) {
  const auto& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  if (psi.size() != n_nodes || phi_n.size() != n_nodes ||
      phi_p.size() != n_nodes) {
    throw std::invalid_argument("solve_poisson: state size mismatch");
  }
  const double ni = dev.ni();
  const double vt = dev.vt();
  const std::size_t nx = m.nx();

  // Pre-resolve Dirichlet values.
  std::vector<char> dirichlet(n_nodes, 0);
  std::vector<double> psi_fixed(n_nodes, 0.0);
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    const std::string& c = m.contact_of(idx);
    if (c.empty()) continue;
    const auto it = biases.find(c);
    if (it == biases.end()) {
      throw std::invalid_argument("solve_poisson: missing bias for contact " +
                                  c);
    }
    dirichlet[idx] = 1;
    psi_fixed[idx] = dev.contact_potential(idx, it->second);
    psi[idx] = psi_fixed[idx];
  }

  const auto eps_of_edge = [&](std::size_t a, std::size_t b) {
    const bool ox = !dev.is_silicon(a) || !dev.is_silicon(b);
    return ox ? physics::kEpsSiO2 : physics::kEpsSi;
  };

  // The edge conductances eps*area/dist and the charge prefactor q*box
  // depend only on the mesh and material map, not on psi — compute them
  // once instead of once per Newton iteration. Values are formed by the
  // exact expressions the in-loop assembly used (left-to-right products
  // unchanged), so the assembled system is bitwise-identical.
  struct NodeStencil {
    std::array<std::size_t, 4> nb{};  // west, east, south, north
    std::array<double, 4> k{};        // edge conductances (0 = no edge)
    std::array<char, 4> has{};
    double qbox = 0.0;  // q * box_area, 0 for non-silicon nodes
    double doping = 0.0;
  };
  std::vector<NodeStencil> stencil(n_nodes);
  for (std::size_t j = 0; j < m.ny(); ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t idx = m.index(i, j);
      NodeStencil& s = stencil[idx];
      const auto set_edge = [&](std::size_t slot, std::size_t nb,
                                double dist, double area) {
        s.nb[slot] = nb;
        s.k[slot] = eps_of_edge(idx, nb) * area / dist;
        s.has[slot] = 1;
      };
      if (i > 0) {
        set_edge(0, m.index(i - 1, j), m.x(i) - m.x(i - 1),
                 m.dy_minus(j) + m.dy_plus(j));
      }
      if (i + 1 < nx) {
        set_edge(1, m.index(i + 1, j), m.x(i + 1) - m.x(i),
                 m.dy_minus(j) + m.dy_plus(j));
      }
      if (j > 0) {
        set_edge(2, m.index(i, j - 1), m.y(j) - m.y(j - 1),
                 m.dx_minus(i) + m.dx_plus(i));
      }
      if (j + 1 < m.ny()) {
        set_edge(3, m.index(i, j + 1), m.y(j + 1) - m.y(j),
                 m.dx_minus(i) + m.dx_plus(i));
      }
      if (dev.is_silicon(idx)) {
        s.qbox = physics::kQ * m.box_area(i, j);
        s.doping = dev.net_doping()[idx];
      }
    }
  }

  // The Newton Jacobian is symmetric once the Dirichlet columns are
  // dropped: a Dirichlet node's step is 0 (identity row, zero rhs), so
  // its column multiplies nothing, and every edge's conductance is the
  // same expression from both ends. The free block is then negative
  // definite and diagonally dominant, so the unpivoted LDLᵀ factors it
  // (DESIGN §22); only the lower triangle is stored, each row writing
  // its W and S entries. Assembly workspace hoisted out of the Newton
  // loop: zero + refill is bitwise-identical to fresh construction. The
  // LDLᵀ factors `jac` in place and solves in place in `rhs`, which
  // then holds the Newton step until the next assembly rewrites every
  // row of both.
  linalg::SymmetricBandedMatrix jac(n_nodes, m.bandwidth());
  std::vector<double> rhs(n_nodes, 0.0);

  PoissonResult result;
  for (std::size_t it = 0; it < kMaxNewtonIterations; ++it) {
    jac.set_zero();

    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (dirichlet[idx]) {
        jac.at(idx, idx) = 1.0;
        rhs[idx] = 0.0;  // already imposed
        continue;
      }
      const NodeStencil& s = stencil[idx];
      double f = 0.0;
      double diag = 0.0;
      for (std::size_t e = 0; e < 4; ++e) {
        if (!s.has[e]) continue;
        const double k = s.k[e];
        f += k * (psi[s.nb[e]] - psi[idx]);
        diag -= k;
        if (s.nb[e] < idx && !dirichlet[s.nb[e]]) jac.at(idx, s.nb[e]) = k;
      }
      if (s.qbox != 0.0) {
        const double nn = boltzmann_n(psi[idx], phi_n[idx], ni, vt);
        const double pp = boltzmann_p(psi[idx], phi_p[idx], ni, vt);
        f += s.qbox * (pp - nn + s.doping);
        diag -= s.qbox * (nn + pp) / vt;
      }
      jac.at(idx, idx) = diag;
      rhs[idx] = -f;
    }

    result.iterations = it + 1;
    {
      const obs::ScopedSpan ldlt_span(profiler,
                                      obs::names::spans::kBandedLdltSolve);
      try {
        linalg::banded_ldlt_factor_in_place(jac);
      } catch (const std::runtime_error&) {
        // A NaN or Inf in the Jacobian (a non-finite quasi-Fermi level
        // or potential at a silicon node) reaches a pivot and throws;
        // psi keeps its last step, and the caller restores a good state.
        result.status = SolveStatus::kNonFinite;
        return result;
      }
      linalg::banded_ldlt_solve(jac, rhs);
    }
    const std::vector<double>& delta = rhs;
    double max_update = 0.0;
    double max_psi = 0.0;
    bool finite = true;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (dirichlet[idx]) continue;
      const double d = std::clamp(delta[idx], -kDampingClamp, kDampingClamp);
      psi[idx] += d;
      max_update = std::max(max_update, std::abs(d));
      max_psi = std::max(max_psi, std::abs(psi[idx]));
      finite = finite && std::isfinite(psi[idx]);
    }
    result.max_update = max_update;
    // Guards: a non-finite potential (a NaN or Inf that the residual
    // carried past the factorization, such as a NaN psi at an oxide
    // node, whose Jacobian row does not depend on psi) or a runaway one
    // means further iteration only manufactures garbage — stop now and
    // let the caller restore a good state. The maxima above skip NaN
    // (std::max keeps its first operand), hence the separate flag.
    if (!finite) {
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    if (max_psi > kDivergenceThreshold) {
      result.status = SolveStatus::kDiverged;
      return result;
    }
    if (max_update < options.update_tolerance) {
      result.converged = true;
      result.status = SolveStatus::kConverged;
      return result;
    }
  }
  return result;
}

}  // namespace subscale::tcad
