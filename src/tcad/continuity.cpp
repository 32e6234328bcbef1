#include "tcad/continuity.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/banded.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "physics/constants.h"
#include "physics/fermi.h"

namespace subscale::tcad {

double edge_mobility(const DeviceStructure& dev, physics::Carrier carrier,
                     const std::vector<double>& psi, std::size_t node_a,
                     std::size_t node_b, double dist,
                     const ContinuityOptions& options) {
  const double doping =
      0.5 * (dev.total_doping()[node_a] + dev.total_doping()[node_b]);
  double mu = physics::masetti_mobility(carrier, doping);
  if (options.velocity_saturation) {
    const double e_par = std::abs(psi[node_b] - psi[node_a]) / dist;
    mu = physics::caughey_thomas_mobility(carrier, mu, e_par,
                                          dev.spec().temperature);
  }
  return mu;
}

double edge_current(const DeviceStructure& dev, physics::Carrier carrier,
                    const std::vector<double>& psi,
                    const std::vector<double>& density, std::size_t node_a,
                    std::size_t node_b, double dist, double area,
                    const ContinuityOptions& options) {
  const double vt = dev.vt();
  const double mu = edge_mobility(dev, carrier, psi, node_a, node_b, dist,
                                  options);
  const double k = physics::kQ * mu * vt * area / dist;
  const double dpsi = (psi[node_b] - psi[node_a]) / vt;
  if (carrier == physics::Carrier::kElectron) {
    // J_n(a->b) = k [ n_b B(dpsi) - n_a B(-dpsi) ].
    return k * (density[node_b] * physics::bernoulli(dpsi) -
                density[node_a] * physics::bernoulli(-dpsi));
  }
  // J_p(a->b) = k [ p_a B(dpsi) - p_b B(-dpsi) ].
  return k * (density[node_a] * physics::bernoulli(dpsi) -
              density[node_b] * physics::bernoulli(-dpsi));
}

SgWorkspace::SgWorkspace() = default;
SgWorkspace::~SgWorkspace() = default;
SgWorkspace::SgWorkspace(SgWorkspace&&) noexcept = default;
SgWorkspace& SgWorkspace::operator=(SgWorkspace&&) noexcept = default;

void SgWorkspace::bind(const DeviceStructure& dev) {
  const auto& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  const std::size_t nx = m.nx();
  edges_.assign(4 * n_nodes, Edge{});
  for (std::size_t j = 0; j < m.ny(); ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t idx = m.index(i, j);
      const auto set_edge = [&](std::size_t slot, std::size_t nb,
                                double dist, double area) {
        if (!dev.silicon_edge(idx, nb)) return;  // no flux into oxide
        Edge& e = edges_[4 * idx + slot];
        e.nb = nb;
        e.dist = dist;
        e.area = area;
        // Same averaged-doping Masetti evaluation edge_mobility performs;
        // the field-dependent Caughey–Thomas factor stays per-solve.
        const double doping =
            0.5 * (dev.total_doping()[idx] + dev.total_doping()[nb]);
        e.mu_n0 =
            physics::masetti_mobility(physics::Carrier::kElectron, doping);
        e.mu_p0 = physics::masetti_mobility(physics::Carrier::kHole, doping);
        e.active = true;
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
    }
  }
  a_ = std::make_unique<linalg::BandedMatrix>(n_nodes, m.bandwidth(),
                                              m.bandwidth());
  rhs_.assign(n_nodes, 0.0);
  ipiv_.assign(n_nodes, 0);
  row_scale_.assign(n_nodes, 0.0);
  dev_ = &dev;
}

ContinuityResult solve_continuity(const DeviceStructure& dev,
                                  physics::Carrier carrier,
                                  const std::vector<double>& psi,
                                  const std::vector<double>& other_density,
                                  std::vector<double>& density,
                                  const ContinuityOptions& options,
                                  obs::SpanProfiler* profiler,
                                  SgWorkspace* workspace) {
  const auto& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  if (psi.size() != n_nodes || density.size() != n_nodes ||
      other_density.size() != n_nodes) {
    throw std::invalid_argument("solve_continuity: state size mismatch");
  }
  const double ni = dev.ni();
  const double vt = dev.vt();
  const bool electrons = carrier == physics::Carrier::kElectron;
  const double temperature = dev.spec().temperature;

  SgWorkspace local;
  SgWorkspace& ws = workspace != nullptr ? *workspace : local;
  if (ws.dev_ != &dev) ws.bind(dev);

  // Slotboom weights: density = w * unknown. The exponent clamp keeps a
  // diverging intermediate potential from overflowing exp — the solve
  // then degrades instead of poisoning the state with infinities (and
  // |psi| beyond 300 vt trips the divergence ladder anyway).
  std::vector<double>& w = ws.w_;
  if (options.slotboom) {
    w.resize(n_nodes);
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      const double s =
          std::clamp(psi[idx] / vt, -300.0, 300.0);
      w[idx] = ni * std::exp(electrons ? s : -s);
    }
  }
  const auto weight = [&](std::size_t idx) {
    return options.slotboom ? w[idx] : 1.0;
  };

  // Every row is rewritten below, so zeroed-and-refilled recycled
  // buffers assemble the identical system a fresh matrix would.
  linalg::BandedMatrix& a = *ws.a_;
  a.set_zero();
  std::vector<double>& rhs = ws.rhs_;

  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    // Oxide nodes carry no carriers; contact silicon nodes are ohmic.
    if (!dev.is_silicon(idx)) {
      a.at(idx, idx) = 1.0;
      rhs[idx] = 0.0;
      continue;
    }
    if (dev.is_contact(idx)) {
      double n_eq = 0.0, p_eq = 0.0;
      dev.ohmic_carriers(idx, &n_eq, &p_eq);
      a.at(idx, idx) = 1.0;
      rhs[idx] = (electrons ? n_eq : p_eq) / weight(idx);
      continue;
    }

    double diag = 0.0;
    // Slot order (W, E, S, N) preserves the seed assembly's per-row
    // accumulation order exactly.
    for (std::size_t slot = 0; slot < 4; ++slot) {
      const SgWorkspace::Edge& e = ws.edges_[4 * idx + slot];
      if (!e.active) continue;
      const std::size_t nb = e.nb;
      double mu = electrons ? e.mu_n0 : e.mu_p0;
      if (options.velocity_saturation) {
        const double e_par = std::abs(psi[nb] - psi[idx]) / e.dist;
        mu = physics::caughey_thomas_mobility(carrier, mu, e_par,
                                              temperature);
      }
      const double k = mu * vt * e.area / e.dist;
      const double dpsi = (psi[nb] - psi[idx]) / vt;
      if (electrons) {
        // sum_e k [ n_nb B(dpsi) - n_idx B(-dpsi) ] = box R
        a.add(idx, nb, k * physics::bernoulli(dpsi) * weight(nb));
        diag -= k * physics::bernoulli(-dpsi) * weight(idx);
      } else {
        // sum_e k [ p_idx B(dpsi) - p_nb B(-dpsi) ] + box R = 0
        a.add(idx, nb, -k * physics::bernoulli(-dpsi) * weight(nb));
        diag += k * physics::bernoulli(dpsi) * weight(idx);
      }
    }

    // SRH with lagged denominator: R = (nu * other - ni^2) / D.
    const double box = m.box_area(m.i_of(idx), m.j_of(idx));
    const double n_prev = electrons ? density[idx] : other_density[idx];
    const double p_prev = electrons ? other_density[idx] : density[idx];
    const double denom = options.tau_srh * (n_prev + ni) +
                         options.tau_srh * (p_prev + ni);
    const double other = other_density[idx];
    if (electrons) {
      // sum(...) - box (n p - ni^2)/D = 0
      diag -= box * other / denom * weight(idx);
      rhs[idx] = -box * ni * ni / denom;
    } else {
      // sum(...) + box (n p - ni^2)/D = 0
      diag += box * other / denom * weight(idx);
      rhs[idx] = box * ni * ni / denom;
    }
    a.at(idx, idx) = diag;
  }

  {
    const obs::ScopedSpan lu_span(profiler,
                                  obs::names::spans::kBandedLuSolve);
    linalg::banded_lu_factor_in_place(a, ws.ipiv_, ws.row_scale_);
    density = rhs;
    linalg::banded_lu_solve(a, ws.ipiv_, ws.row_scale_, density);
  }
  if (options.slotboom) {
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      density[idx] *= w[idx];
    }
  }
  // The linear solve can undershoot in sharply graded regions; clamp to a
  // tiny positive floor so logs and SRH terms stay defined. A NaN/Inf
  // (singular pivot from a degenerate potential) is counted and reset so
  // it cannot poison the Gummel state — the caller sees it in the result.
  ContinuityResult result;
  const double floor = 1e-20 * ni;
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!dev.is_silicon(idx)) {
      density[idx] = 0.0;
    } else if (!std::isfinite(density[idx])) {
      ++result.non_finite_nodes;
      density[idx] = floor;
    } else {
      density[idx] = std::max(density[idx], floor);
      result.max_density = std::max(result.max_density, density[idx]);
    }
  }
  if (result.non_finite_nodes > 0) result.status = SolveStatus::kNonFinite;
  return result;
}

}  // namespace subscale::tcad
