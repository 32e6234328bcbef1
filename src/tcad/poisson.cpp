#include "tcad/poisson.h"

#include <algorithm>
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
/// Largest drift of psi, phi_n or phi_p at any free silicon node, from
/// where the held factor was assembled, at which a Newton iteration
/// still reuses it [V]. Each diagonal entry then moves by at most a
/// factor e^{2 tau / v_t}, 0.78 % at 300 K (DESIGN §28).
constexpr double kJacobianReuseDrift = 1e-4;
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

PoissonWorkspace::PoissonWorkspace() = default;
PoissonWorkspace::~PoissonWorkspace() = default;
PoissonWorkspace::PoissonWorkspace(PoissonWorkspace&&) noexcept = default;
PoissonWorkspace& PoissonWorkspace::operator=(PoissonWorkspace&&) noexcept =
    default;

mesh::RowMap poisson_rows(const DeviceStructure& dev) {
  return mesh::number_rows(dev.mesh(), [&dev](std::size_t idx) {
    return !dev.is_contact(idx);
  });
}

void PoissonWorkspace::bind(const DeviceStructure& dev) {
  const auto& m = dev.mesh();
  const std::size_t nx = m.nx();
  rows_ = poisson_rows(dev);

  const auto eps_of_edge = [&](std::size_t a, std::size_t b) {
    const bool ox = !dev.is_silicon(a) || !dev.is_silicon(b);
    return ox ? physics::kEpsSiO2 : physics::kEpsSi;
  };

  // The edge conductances eps*area/dist and the charge prefactor q*box
  // are formed by the exact expressions an in-loop assembly would use
  // (left-to-right products unchanged), so the assembled system is
  // bitwise-identical.
  stencil_.assign(rows_.node.size(), RowStencil{});
  free_silicon_.clear();
  for (std::size_t r = 0; r < rows_.node.size(); ++r) {
    const std::size_t idx = rows_.node[r];
    const std::size_t i = m.i_of(idx);
    const std::size_t j = m.j_of(idx);
    RowStencil& s = stencil_[r];
    const auto set_edge = [&](std::size_t slot, std::size_t nb, double dist,
                              double area) {
      s.nb[slot] = nb;
      s.col[slot] = rows_.row[nb];
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
      free_silicon_.push_back(idx);
    }
  }

  contacts_.clear();
  for (const std::string& c : m.contact_names()) {
    if (!m.contact_nodes(c).empty()) contacts_.push_back(c);
  }

  anchor_.assign(3 * free_silicon_.size(), 0.0);
  factored_ = false;

  jac_ = std::make_unique<linalg::SymmetricBandedMatrix>(rows_.node.size(),
                                                         rows_.band);
  rhs_.assign(rows_.node.size(), 0.0);
  dev_ = &dev;
}

bool PoissonWorkspace::factor_fits(const std::vector<double>& psi,
                                   const std::vector<double>& phi_n,
                                   const std::vector<double>& phi_p) const {
  if (!factored_) return false;
  const double* a = anchor_.data();
  for (const std::size_t idx : free_silicon_) {
    // Written so that a NaN anywhere fails the test.
    if (!(std::abs(psi[idx] - a[0]) <= kJacobianReuseDrift &&
          std::abs(phi_n[idx] - a[1]) <= kJacobianReuseDrift &&
          std::abs(phi_p[idx] - a[2]) <= kJacobianReuseDrift)) {
      return false;
    }
    a += 3;
  }
  return true;
}

void PoissonWorkspace::anchor(const std::vector<double>& psi,
                              const std::vector<double>& phi_n,
                              const std::vector<double>& phi_p) {
  double* a = anchor_.data();
  for (const std::size_t idx : free_silicon_) {
    a[0] = psi[idx];
    a[1] = phi_n[idx];
    a[2] = phi_p[idx];
    a += 3;
  }
  factored_ = true;
}

PoissonResult solve_poisson(const DeviceStructure& dev,
                            const BiasPoint& bias,
                            const std::vector<double>& phi_n,
                            const std::vector<double>& phi_p,
                            std::vector<double>& psi,
                            const PoissonOptions& options,
                            obs::SpanProfiler* profiler,
                            PoissonWorkspace* workspace) {
  const std::size_t n_nodes = dev.mesh().node_count();
  if (psi.size() != n_nodes || phi_n.size() != n_nodes ||
      phi_p.size() != n_nodes) {
    throw std::invalid_argument("solve_poisson: state size mismatch");
  }
  const double ni = dev.ni();
  const double vt = dev.vt();

  PoissonWorkspace local;
  PoissonWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (ws.dev_ != &dev) ws.bind(dev);

  // Impose the Dirichlet values.
  for (const std::string& c : ws.contacts_) {
    const double v = bias.of(c);
    for (const std::size_t idx : dev.mesh().contact_nodes(c)) {
      psi[idx] = dev.contact_potential(idx, v);
    }
  }
  const mesh::RowMap& rows = ws.rows_;
  const std::vector<PoissonWorkspace::RowStencil>& stencil = ws.stencil_;

  // One row per node that is not a contact (DESIGN §29): a contact's
  // potential is imposed above, so its term in a neighbour's residual
  // reads psi and it has no column. Every edge's conductance is the same
  // expression from both ends, so the Newton Jacobian is symmetric; it is
  // negative definite and diagonally dominant, so the unpivoted LDLᵀ
  // factors it (DESIGN §22); only the lower triangle is stored, each row
  // writing its W and S entries. The workspace's matrix is zeroed and
  // refilled whenever it is refactored, which is bitwise-identical to
  // fresh construction. The LDLᵀ factors `jac` in place and solves in
  // place in `rhs`, which then holds the Newton step until the next
  // assembly rewrites every row of it.
  linalg::SymmetricBandedMatrix& jac = *ws.jac_;
  std::vector<double>& rhs = ws.rhs_;

  PoissonResult result;
  for (std::size_t it = 0; it < kMaxNewtonIterations; ++it) {
    // A chord step reuses the held factor while the state has not
    // drifted from its anchor; the residual below is always fresh.
    const bool refactor = !ws.factor_fits(psi, phi_n, phi_p);
    if (refactor) jac.set_zero();

    for (std::size_t r = 0; r < rows.node.size(); ++r) {
      const std::size_t idx = rows.node[r];
      const PoissonWorkspace::RowStencil& s = stencil[r];
      double f = 0.0;
      double diag = 0.0;
      for (std::size_t e = 0; e < 4; ++e) {
        if (!s.has[e]) continue;
        const double k = s.k[e];
        f += k * (psi[s.nb[e]] - psi[idx]);
        diag -= k;
        // A contact neighbour's kNoRow is never below r.
        if (refactor && s.col[e] < r) jac.at(r, s.col[e]) = k;
      }
      if (s.qbox != 0.0) {
        const double nn = boltzmann_n(psi[idx], phi_n[idx], ni, vt);
        const double pp = boltzmann_p(psi[idx], phi_p[idx], ni, vt);
        f += s.qbox * (pp - nn + s.doping);
        diag -= s.qbox * (nn + pp) / vt;
      }
      if (refactor) jac.at(r, r) = diag;
      rhs[r] = -f;
    }

    result.iterations = it + 1;
    {
      const obs::ScopedSpan ldlt_span(profiler,
                                      obs::names::spans::kBandedLdltSolve);
      if (refactor) {
        ws.factored_ = false;
        ++result.factorizations;
        result.band_entries += rows.node.size() * (rows.band + 1);
        try {
          linalg::banded_ldlt_factor_in_place(jac);
        } catch (const std::runtime_error&) {
          // A NaN or Inf in the Jacobian (a non-finite quasi-Fermi level
          // or potential at a silicon node) reaches a pivot and throws;
          // psi keeps its last step, the partial factor is not held, and
          // the caller restores a good state.
          result.status = SolveStatus::kNonFinite;
          return result;
        }
        ws.anchor(psi, phi_n, phi_p);
      }
      linalg::banded_ldlt_solve(jac, rhs);
    }
    const std::vector<double>& delta = rhs;
    double max_update = 0.0;
    double max_psi = 0.0;
    bool finite = true;
    for (std::size_t r = 0; r < rows.node.size(); ++r) {
      const std::size_t idx = rows.node[r];
      const double d = std::clamp(delta[r], -kDampingClamp, kDampingClamp);
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
