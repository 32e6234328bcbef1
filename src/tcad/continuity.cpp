#include "tcad/continuity.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "linalg/banded.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "physics/constants.h"
#include "physics/fermi.h"

namespace subscale::tcad {

double edge_mobility(const DeviceStructure& dev, physics::Carrier carrier,
                     const std::vector<double>& psi, std::size_t node_a,
                     std::size_t node_b, double dist) {
  const double doping =
      0.5 * (dev.total_doping()[node_a] + dev.total_doping()[node_b]);
  const double e_par = std::abs(psi[node_b] - psi[node_a]) / dist;
  return physics::caughey_thomas_mobility(
      carrier, physics::masetti_mobility(carrier, doping), e_par,
      dev.spec().temperature);
}

double edge_current(const DeviceStructure& dev, physics::Carrier carrier,
                    const std::vector<double>& psi,
                    const std::vector<double>& density, std::size_t node_a,
                    std::size_t node_b, double dist, double area) {
  const double vt = dev.vt();
  const double mu = edge_mobility(dev, carrier, psi, node_a, node_b, dist);
  const double k = physics::kQ * mu * vt * area / dist;
  const physics::BernoulliPair b =
      physics::bernoulli_pair((psi[node_b] - psi[node_a]) / vt);
  if (carrier == physics::Carrier::kElectron) {
    // J_n(a->b) = k [ n_b B(dpsi) - n_a B(-dpsi) ].
    return k * (density[node_b] * b.at_x - density[node_a] * b.at_minus_x);
  }
  // J_p(a->b) = k [ p_a B(dpsi) - p_b B(-dpsi) ].
  return k * (density[node_a] * b.at_x - density[node_b] * b.at_minus_x);
}

SgWorkspace::SgWorkspace() = default;
SgWorkspace::~SgWorkspace() = default;
SgWorkspace::SgWorkspace(SgWorkspace&&) noexcept = default;
SgWorkspace& SgWorkspace::operator=(SgWorkspace&&) noexcept = default;

mesh::RowMap continuity_rows(const DeviceStructure& dev) {
  return mesh::number_rows(dev.mesh(), [&dev](std::size_t idx) {
    return dev.is_silicon(idx) && !dev.is_contact(idx);
  });
}

void SgWorkspace::bind(const DeviceStructure& dev) {
  const auto& m = dev.mesh();
  const std::size_t nx = m.nx();
  rows_ = continuity_rows(dev);
  const std::vector<std::size_t>& row = rows_.row;
  constexpr std::size_t kNoRow = mesh::RowMap::kNoRow;
  box_.clear();
  for (const std::size_t idx : rows_.node) {
    box_.push_back(m.box_area(m.i_of(idx), m.j_of(idx)));
  }
  ohmic_n_.assign(m.node_count(), 0.0);
  ohmic_p_.assign(m.node_count(), 0.0);
  for (std::size_t idx = 0; idx < m.node_count(); ++idx) {
    if (dev.is_silicon(idx) && dev.is_contact(idx)) {
      dev.ohmic_carriers(idx, &ohmic_n_[idx], &ohmic_p_[idx]);
    }
  }
  edges_.clear();
  slot_edge_.assign(4 * rows_.node.size(), kNoEdge);
  for (std::size_t j = 0; j < m.ny(); ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t a = m.index(i, j);
      // `slot` is a's E or N slot; the same edge is b's W or S slot.
      const auto add_edge = [&](std::size_t slot, std::size_t b, double dist,
                                double area) {
        if (!dev.silicon_edge(a, b)) return;  // no flux into oxide
        if (row[a] == kNoRow && row[b] == kNoRow) return;  // no row uses it
        // The averaged doping is the same expression from either end,
        // and so is the Masetti evaluation edge_mobility performs; the
        // field-dependent Caughey–Thomas factor stays per-solve.
        const double doping =
            0.5 * (dev.total_doping()[a] + dev.total_doping()[b]);
        if (row[a] != kNoRow) slot_edge_[4 * row[a] + slot] = edges_.size();
        if (row[b] != kNoRow) {
          slot_edge_[4 * row[b] + slot - 1] = edges_.size();
        }
        edges_.push_back(
            {a, b, dist, area,
             physics::masetti_mobility(physics::Carrier::kElectron, doping),
             physics::masetti_mobility(physics::Carrier::kHole, doping)});
      };
      if (i + 1 < nx) {
        add_edge(1, m.index(i + 1, j), m.x(i + 1) - m.x(i),
                 m.dy_minus(j) + m.dy_plus(j));
      }
      if (j + 1 < m.ny()) {
        add_edge(3, m.index(i, j + 1), m.y(j + 1) - m.y(j),
                 m.dx_minus(i) + m.dx_plus(i));
      }
    }
  }
  b_ab_.assign(edges_.size(), 0.0);
  b_ba_.assign(edges_.size(), 0.0);
  pairs_psi_.clear();
  kb_ab_.assign(edges_.size(), 0.0);
  kb_ba_.assign(edges_.size(), 0.0);
  a_ = std::make_unique<linalg::BandedMatrix>(rows_.node.size(), rows_.band,
                                              rows_.band);
  rhs_.assign(rows_.node.size(), 0.0);
  dev_ = &dev;
}

ContinuityResult solve_continuity(const DeviceStructure& dev,
                                  physics::Carrier carrier,
                                  const std::vector<double>& psi,
                                  const std::vector<double>& other_density,
                                  std::vector<double>& density,
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

  // Each edge's coefficients, once for both of its rows. From the b end
  // the potential step is the exact negation (IEEE subtraction is
  // antisymmetric, and so is the division by vt), so its B(+-dpsi) are
  // these two swapped; |dpsi|, dist, area and the averaged doping are the
  // same expressions there, so its mobility and k are these too. The
  // Bernoulli pairs are recomputed only when psi's bytes differ from
  // those they were computed at.
  if (ws.pairs_psi_.size() != n_nodes ||
      std::memcmp(ws.pairs_psi_.data(), psi.data(),
                  n_nodes * sizeof(double)) != 0) {
    for (std::size_t e = 0; e < ws.edges_.size(); ++e) {
      const SgWorkspace::Edge& edge = ws.edges_[e];
      const physics::BernoulliPair b =
          physics::bernoulli_pair((psi[edge.b] - psi[edge.a]) / vt);
      ws.b_ab_[e] = b.at_x;
      ws.b_ba_[e] = b.at_minus_x;
    }
    ws.pairs_psi_ = psi;
  }
  const double vsat = physics::saturation_velocity(carrier, temperature);
  for (std::size_t e = 0; e < ws.edges_.size(); ++e) {
    const SgWorkspace::Edge& edge = ws.edges_[e];
    const double e_par = std::abs(psi[edge.b] - psi[edge.a]) / edge.dist;
    const double mu = physics::caughey_thomas_mobility_vsat(
        carrier, electrons ? edge.mu_n0 : edge.mu_p0, e_par, vsat);
    const double k = mu * vt * edge.area / edge.dist;
    ws.kb_ab_[e] = k * ws.b_ab_[e];
    ws.kb_ba_[e] = k * ws.b_ba_[e];
  }
  const std::vector<double>& ohmic = electrons ? ws.ohmic_n_ : ws.ohmic_p_;

  // Every row is rewritten below, so zeroed-and-refilled recycled
  // buffers assemble the identical system a fresh matrix would.
  const mesh::RowMap& rows = ws.rows_;
  linalg::BandedMatrix& a = *ws.a_;
  a.set_zero();
  std::vector<double>& rhs = ws.rhs_;

  for (std::size_t r = 0; r < rows.node.size(); ++r) {
    const std::size_t idx = rows.node[r];
    double diag = 0.0;
    double fixed = 0.0;  // the contact neighbours' flux terms, summed
    // Slot order (W, E, S, N) preserves the seed assembly's per-row
    // accumulation order exactly. With dpsi = (psi[nb] - psi[idx]) / vt,
    // `toward` is k B(dpsi) and `away` k B(-dpsi); the hole row's -away
    // is (-k) B(-dpsi) bit for bit. A silicon neighbour that is no row
    // is an ohmic contact, whose density is known, so its term goes to
    // the right-hand side: each edge's coefficient then sits once off
    // the diagonal and once in its column's diagonal, which makes the
    // system column-diagonally dominant (DESIGN §23.1).
    for (std::size_t slot = 0; slot < 4; ++slot) {
      const std::size_t e = ws.slot_edge_[4 * r + slot];
      if (e == SgWorkspace::kNoEdge) continue;
      const bool at_a = (slot & 1) != 0;  // E and N slots
      const std::size_t nb = at_a ? ws.edges_[e].b : ws.edges_[e].a;
      const double toward = at_a ? ws.kb_ab_[e] : ws.kb_ba_[e];
      const double away = at_a ? ws.kb_ba_[e] : ws.kb_ab_[e];
      // sum_e k [ n_nb B(dpsi) - n_idx B(-dpsi) ] = box R, or
      // sum_e k [ p_idx B(dpsi) - p_nb B(-dpsi) ] + box R = 0.
      const double coupling = electrons ? toward : -away;
      diag += electrons ? -away : toward;
      if (rows.row[nb] == mesh::RowMap::kNoRow) {
        fixed += coupling * ohmic[nb];
      } else {
        a.add(r, rows.row[nb], coupling);
      }
    }

    // SRH with lagged denominator: R = (nu * other - ni^2) / D.
    const double box = ws.box_[r];
    const double n_prev = electrons ? density[idx] : other_density[idx];
    const double p_prev = electrons ? other_density[idx] : density[idx];
    const double denom = kTauSrh * (n_prev + ni) + kTauSrh * (p_prev + ni);
    const double other = other_density[idx];
    if (electrons) {
      // sum(...) - box (n p - ni^2)/D = 0
      diag -= box * other / denom;
      rhs[r] = -box * ni * ni / denom - fixed;
    } else {
      // sum(...) + box (n p - ni^2)/D = 0
      diag += box * other / denom;
      rhs[r] = box * ni * ni / denom - fixed;
    }
    a.at(r, r) = diag;
  }

  ContinuityResult result;
  {
    const obs::ScopedSpan lu_span(profiler,
                                  obs::names::spans::kBandedLuSolve);
    result.band_entries =
        a.size() * (a.lower_bandwidth() + a.upper_bandwidth() + 1);
    try {
      linalg::banded_lu_factor_in_place(a);
    } catch (const std::runtime_error&) {
      // A zero or non-finite pivot (a NaN potential or density makes
      // every coefficient of its rows NaN, its pivot included):
      // `density` is left as it came in, and the caller restores a good
      // state.
      result.status = SolveStatus::kNonFinite;
      return result;
    }
    linalg::banded_lu_solve(a, rhs);
  }
  // Each silicon node takes its row's solution, or its ohmic density at
  // a contact; oxide nodes carry none. An M-matrix with a right-hand
  // side of one sign has a solution of that sign, so no density should
  // fall below the tiny positive floor that keeps logs and SRH terms
  // defined; any that does is counted (tcad.continuity.clamped_nodes)
  // and raised. A NaN/Inf that the factorization let through (a
  // non-finite right-hand side, or a NaN off-diagonal entry that no
  // pivot met) is counted and reset so it cannot poison the Gummel
  // state — the caller sees it in the result.
  const double floor = 1e-20 * ni;
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!dev.is_silicon(idx)) {
      density[idx] = 0.0;
      continue;
    }
    const std::size_t r = rows.row[idx];
    density[idx] = r != mesh::RowMap::kNoRow ? rhs[r] : ohmic[idx];
    if (!std::isfinite(density[idx])) {
      ++result.non_finite_nodes;
      density[idx] = floor;
    } else {
      if (density[idx] < floor) {
        ++result.clamped_nodes;
        density[idx] = floor;
      }
      result.max_density = std::max(result.max_density, density[idx]);
    }
  }
  if (result.non_finite_nodes > 0) result.status = SolveStatus::kNonFinite;
  return result;
}

}  // namespace subscale::tcad
