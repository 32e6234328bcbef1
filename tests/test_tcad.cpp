#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "compact/device_spec.h"
#include "compact/mosfet.h"
#include "core/scaling_study.h"
#include "exec/run_context.h"
#include "linalg/banded.h"
#include "mesh/mesh2d.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "physics/constants.h"
#include "physics/fermi.h"
#include "physics/mobility.h"
#include "physics/units.h"
#include "tcad/continuity.h"
#include "tcad/device_sim.h"
#include "tcad/extract.h"
#include "tcad/mesh_continuation.h"
#include "tcad/poisson.h"

namespace se = subscale::exec;
namespace sl = subscale::linalg;
namespace sm = subscale::mesh;
namespace so = subscale::obs;
namespace sp = subscale::physics;
namespace st = subscale::tcad;
namespace sc = subscale::compact;
namespace sd = subscale::doping;
namespace su = subscale::units;

namespace {

/// The paper's 90nm super-V_th NFET (Table 2).
sc::DeviceSpec nfet_90() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 65, 2.10, 1.52e18,
                                  3.63e18, 1.2, 1.0);
}

/// Shared solved device (TCAD solves are the most expensive thing in the
/// test suite, so every test reuses one instance + one sweep).
st::TcadDevice& shared_device() {
  static st::TcadDevice dev(nfet_90());
  return dev;
}

const st::SweepResult& shared_sweep() {
  static const st::SweepResult sweep =
      shared_device().id_vg(0.25, 0.0, 0.45, 10);
  return sweep;
}

}  // namespace

// ---- structure --------------------------------------------------------------

TEST(DeviceStructure, MeshAndContacts) {
  const auto& dev = shared_device().structure();
  const auto& m = dev.mesh();
  EXPECT_GT(m.node_count(), 300u);
  EXPECT_TRUE(m.has_contact("gate"));
  EXPECT_TRUE(m.has_contact("source"));
  EXPECT_TRUE(m.has_contact("drain"));
  EXPECT_TRUE(m.has_contact("bulk"));
  // Gate nodes live in the oxide; source/drain/bulk in silicon.
  for (const auto idx : m.contact_nodes("gate")) {
    EXPECT_FALSE(dev.is_silicon(idx));
  }
  for (const auto idx : m.contact_nodes("source")) {
    EXPECT_TRUE(dev.is_silicon(idx));
  }
}

TEST(DeviceStructure, DopingPolarity) {
  const auto& dev = shared_device().structure();
  const auto& m = dev.mesh();
  // Source nodes: strongly n-type. Bulk nodes: p-type (well-enhanced).
  for (const auto idx : m.contact_nodes("source")) {
    EXPECT_GT(dev.net_doping()[idx], su::per_cm3(1e19));
  }
  for (const auto idx : m.contact_nodes("bulk")) {
    EXPECT_LT(dev.net_doping()[idx], -su::per_cm3(1e17));
  }
}

TEST(DeviceStructure, OhmicCarriersMassActionLaw) {
  const auto& dev = shared_device().structure();
  const auto& m = dev.mesh();
  const double ni2 = dev.ni() * dev.ni();
  // Regression for the heavy-doping cancellation bug: even at the
  // well-enhanced p-type bulk, np = ni^2 must hold to high accuracy.
  for (const auto idx : m.contact_nodes("bulk")) {
    double n = 0.0, p = 0.0;
    dev.ohmic_carriers(idx, &n, &p);
    EXPECT_GT(n, 0.0);
    EXPECT_GT(p, 0.0);
    EXPECT_NEAR(n * p / ni2, 1.0, 1e-9);
    EXPECT_NEAR(p, -dev.net_doping()[idx], 1e-3 * p);
  }
}

TEST(DeviceStructure, GateWorkFunctionOffset) {
  const auto& dev = shared_device().structure();
  const auto& m = dev.mesh();
  const auto gate_node = m.contact_nodes("gate").front();
  // n+ poly on NFET: the gate potential at V_g = 0 sits ~0.55-0.60 V
  // above intrinsic.
  const double pot = dev.contact_potential(gate_node, 0.0);
  EXPECT_GT(pot, 0.50);
  EXPECT_LT(pot, 0.65);
  // Applied bias shifts it one-for-one.
  EXPECT_NEAR(dev.contact_potential(gate_node, 0.3) - pot, 0.3, 1e-12);
}

// ---- equilibrium -----------------------------------------------------------------

TEST(DriftDiffusion, EquilibriumTerminalCurrentsVanish) {
  // The shared device was solved at equilibrium first; by now it has
  // been biased, so re-create a fresh solver for this check.
  st::DeviceStructure dev(nfet_90());
  st::DriftDiffusionSolver solver(dev);
  solver.solve_equilibrium();
  // Off currents at the paper's 90nm device are ~1e-4 A/m; equilibrium
  // residual currents must be far below that.
  EXPECT_LT(std::abs(solver.terminal_current("drain")), 1e-7);
  EXPECT_LT(std::abs(solver.terminal_current("source")), 1e-7);
  EXPECT_LT(std::abs(solver.terminal_current("bulk")), 1e-7);
}

TEST(DriftDiffusion, EquilibriumMassActionInBulk) {
  st::DeviceStructure dev(nfet_90());
  st::DriftDiffusionSolver solver(dev);
  solver.solve_equilibrium();
  const auto& m = dev.mesh();
  const double ni2 = dev.ni() * dev.ni();
  // Deep substrate node far from the junctions.
  const std::size_t i = m.x_grid().nearest_index(0.0);
  const std::size_t j = m.y_grid().nearest_index(0.8 * dev.spec().geometry.substrate_depth);
  const std::size_t idx = m.index(i, j);
  ASSERT_TRUE(dev.is_silicon(idx));
  const double np = solver.state().n[idx] * solver.state().p[idx];
  EXPECT_NEAR(np / ni2, 1.0, 0.05);
}

// ---- bias sweeps --------------------------------------------------------------------

TEST(TcadSweep, CurrentIncreasesMonotonically) {
  const auto& sweep = shared_sweep();
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GT(sweep[k].id, sweep[k - 1].id) << "k=" << k;
  }
}

TEST(TcadSweep, SubthresholdSlopeNearCompactModel) {
  const auto ex = st::extract_from_sweep(shared_sweep());
  const sc::CompactMosfet fet(nfet_90());
  // The from-scratch DD solver and the calibrated compact model must
  // agree on S_S within ~20 % (88-95 vs 85 mV/dec in practice).
  EXPECT_NEAR(ex.ss / fet.subthreshold_swing(), 1.0, 0.20);
  EXPECT_GT(ex.ss_r2, 0.995);  // clean exponential region
}

TEST(TcadSweep, OffCurrentInLeakageRegime) {
  const auto& sweep = shared_sweep().points;
  // I_off at V_gs = 0: within a few orders of the paper's 100 pA/um.
  const double ioff_pa_um = su::to_pA_per_um(sweep.front().id);
  EXPECT_GT(ioff_pa_um, 1.0);
  EXPECT_LT(ioff_pa_um, 1e5);
  // Swing spans several decades across the sweep.
  EXPECT_GT(sweep.back().id / sweep.front().id, 1e3);
}

TEST(TcadSweep, DrainBiasRaisesLeakage) {
  // DIBL: higher V_ds lowers the barrier and raises subthreshold current.
  auto& dev = shared_device();
  const double lo = dev.id_at(0.1, 0.1);
  const double hi = dev.id_at(0.1, 0.5);
  EXPECT_GT(hi, lo);
}

// ---- Scharfetter–Gummel assembly --------------------------------------------

namespace {

/// Which kinds of edge the reference assembly visited.
struct EdgeCoverage {
  std::size_t into_contact = 0;   ///< from a flux row to a contact node
  std::size_t along_surface = 0;  ///< between two interface-row nodes
};

/// solve_continuity as it assembled before each edge was computed once:
/// every flux row evaluates the mobility, k and k B(+-dpsi) of its own
/// edges in W, E, S, N order, moves a contact neighbour's term to the
/// right-hand side with the contact's ohmic density, adds the lagged
/// SRH term, and the system goes through one banded LU. Kept op for op
/// as the bitwise reference.
std::vector<double> reference_continuity(const st::DeviceStructure& dev,
                                         sp::Carrier carrier,
                                         const std::vector<double>& psi,
                                         const std::vector<double>& other,
                                         const std::vector<double>& density,
                                         EdgeCoverage& coverage) {
  const sm::TensorMesh2d& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  const double ni = dev.ni();
  const double vt = dev.vt();
  const bool electrons = carrier == sp::Carrier::kElectron;
  const std::size_t js = m.y_grid().nearest_index(0.0);
  sl::BandedMatrix a(n_nodes, m.bandwidth(), m.bandwidth());
  std::vector<double> rhs(n_nodes, 0.0);
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!dev.is_silicon(idx)) {
      a.at(idx, idx) = 1.0;
      continue;
    }
    if (dev.is_contact(idx)) {
      double n_eq = 0.0, p_eq = 0.0;
      dev.ohmic_carriers(idx, &n_eq, &p_eq);
      a.at(idx, idx) = 1.0;
      rhs[idx] = electrons ? n_eq : p_eq;
      continue;
    }
    const std::size_t i = m.i_of(idx);
    const std::size_t j = m.j_of(idx);
    double diag = 0.0;
    double fixed = 0.0;
    const auto edge = [&](std::size_t nb, double dist, double area) {
      if (!dev.silicon_edge(idx, nb)) return;
      if (dev.is_contact(nb)) ++coverage.into_contact;
      if (j == js && m.j_of(nb) == js) ++coverage.along_surface;
      double mu = sp::masetti_mobility(
          carrier, 0.5 * (dev.total_doping()[idx] + dev.total_doping()[nb]));
      const double e_par = std::abs(psi[nb] - psi[idx]) / dist;
      mu = sp::caughey_thomas_mobility(carrier, mu, e_par,
                                       dev.spec().temperature);
      const double k = mu * vt * area / dist;
      const sp::BernoulliPair b =
          sp::bernoulli_pair((psi[nb] - psi[idx]) / vt);
      double coupling = 0.0;
      if (electrons) {
        coupling = k * b.at_x;
        diag -= k * b.at_minus_x;
      } else {
        coupling = -k * b.at_minus_x;
        diag += k * b.at_x;
      }
      if (dev.is_contact(nb)) {
        double n_eq = 0.0, p_eq = 0.0;
        dev.ohmic_carriers(nb, &n_eq, &p_eq);
        fixed += coupling * (electrons ? n_eq : p_eq);
      } else {
        a.add(idx, nb, coupling);
      }
    };
    if (i > 0) {
      edge(m.index(i - 1, j), m.x(i) - m.x(i - 1),
           m.dy_minus(j) + m.dy_plus(j));
    }
    if (i + 1 < m.nx()) {
      edge(m.index(i + 1, j), m.x(i + 1) - m.x(i),
           m.dy_minus(j) + m.dy_plus(j));
    }
    if (j > 0) {
      edge(m.index(i, j - 1), m.y(j) - m.y(j - 1),
           m.dx_minus(i) + m.dx_plus(i));
    }
    if (j + 1 < m.ny()) {
      edge(m.index(i, j + 1), m.y(j + 1) - m.y(j),
           m.dx_minus(i) + m.dx_plus(i));
    }
    const double box = m.box_area(i, j);
    const double n_prev = electrons ? density[idx] : other[idx];
    const double p_prev = electrons ? other[idx] : density[idx];
    const double denom =
        st::kTauSrh * (n_prev + ni) + st::kTauSrh * (p_prev + ni);
    if (electrons) {
      diag -= box * other[idx] / denom;
      rhs[idx] = -box * ni * ni / denom - fixed;
    } else {
      diag += box * other[idx] / denom;
      rhs[idx] = box * ni * ni / denom - fixed;
    }
    a.at(idx, idx) = diag;
  }
  std::vector<double> x = sl::BandedLu(std::move(a)).solve(rhs);
  const double floor = 1e-20 * ni;
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!dev.is_silicon(idx)) {
      x[idx] = 0.0;
    } else if (!std::isfinite(x[idx])) {
      x[idx] = floor;
    } else {
      x[idx] = std::max(x[idx], floor);
    }
  }
  return x;
}

/// Index of the first entry whose bits differ, or the size if none does.
std::size_t first_bit_difference(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return i;
  }
  return a.size();
}

}  // namespace

TEST(ContinuityAssembly, MatchesPerNodeReferenceBitwise) {
  // On the 90 nm device at a biased state, for both carriers,
  // solve_continuity's densities equal the per-node reference's bit for
  // bit: without a workspace, and out of one workspace reused across
  // carriers. The flux rows include edges into the source/drain
  // contacts and along the oxide interface.
  const st::DeviceStructure dev(nfet_90());
  st::DriftDiffusionSolver solver(dev);
  solver.solve_equilibrium();
  ASSERT_TRUE(solver.try_solve_bias({0.6, 0.5}).converged);
  const std::vector<double>& psi = solver.state().psi;
  st::SgWorkspace workspace;
  for (const sp::Carrier carrier :
       {sp::Carrier::kElectron, sp::Carrier::kHole}) {
    const bool electrons = carrier == sp::Carrier::kElectron;
    const std::string label = electrons ? "n" : "p";
    const std::vector<double>& own =
        electrons ? solver.state().n : solver.state().p;
    const std::vector<double>& other =
        electrons ? solver.state().p : solver.state().n;
    EdgeCoverage coverage;
    const std::vector<double> ref =
        reference_continuity(dev, carrier, psi, other, own, coverage);
    EXPECT_GT(coverage.into_contact, 0u) << label;
    EXPECT_GT(coverage.along_surface, 0u) << label;

    std::vector<double> fresh = own;
    st::solve_continuity(dev, carrier, psi, other, fresh);
    std::vector<double> reused = own;
    st::solve_continuity(dev, carrier, psi, other, reused, nullptr,
                         &workspace);
    const std::size_t at_fresh = first_bit_difference(ref, fresh);
    EXPECT_EQ(at_fresh, ref.size()) << label << " fresh";
    const std::size_t at_reused = first_bit_difference(ref, reused);
    EXPECT_EQ(at_reused, ref.size()) << label << " workspace";
  }
}

// ---- Poisson assembly --------------------------------------------------------

namespace {

/// The reference's held factor: the factored full-mesh Jacobian and the
/// psi, phi_n and phi_p it was assembled at.
struct ReferenceFactor {
  explicit ReferenceFactor(const sm::TensorMesh2d& m)
      : jac(m.node_count(), m.bandwidth()) {}
  sl::SymmetricBandedMatrix jac;
  bool factored = false;
  std::vector<double> psi, phi_n, phi_p;
};

/// solve_poisson's damped Newton loop as it assembled before the contact
/// rows were dropped: every mesh node is a row, a contact node an
/// identity row with a zero right-hand side whose column is dropped, and
/// the lower triangle goes through an LDLᵀ over TensorMesh2d::bandwidth().
/// An iteration refactors unless a factor is held and every silicon node
/// that is no contact has psi, phi_n and phi_p within 1e-4 V of where it
/// was assembled; the step clamp (0.1 V), Newton budget (120) and
/// divergence guard (50 V) are poisson.cpp's constants. Kept op for op
/// as the bitwise reference.
st::PoissonResult reference_poisson(const st::DeviceStructure& dev,
                                    const st::BiasPoint& bias,
                                    const std::vector<double>& phi_n,
                                    const std::vector<double>& phi_p,
                                    std::vector<double>& psi,
                                    ReferenceFactor& held) {
  const sm::TensorMesh2d& m = dev.mesh();
  const std::size_t n_nodes = m.node_count();
  const double ni = dev.ni();
  const double vt = dev.vt();
  std::vector<char> dirichlet(n_nodes, 0);
  for (const std::string& c : m.contact_names()) {
    for (const std::size_t idx : m.contact_nodes(c)) {
      dirichlet[idx] = 1;
      psi[idx] = dev.contact_potential(idx, bias.of(c));
    }
  }
  const auto free_silicon = [&](std::size_t idx) {
    return dev.is_silicon(idx) && !dirichlet[idx];
  };
  const auto fits = [&] {
    if (!held.factored) return false;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (!free_silicon(idx)) continue;
      if (!(std::abs(psi[idx] - held.psi[idx]) <= 1e-4 &&
            std::abs(phi_n[idx] - held.phi_n[idx]) <= 1e-4 &&
            std::abs(phi_p[idx] - held.phi_p[idx]) <= 1e-4)) {
        return false;
      }
    }
    return true;
  };
  std::vector<double> rhs(n_nodes, 0.0);
  st::PoissonResult result;
  for (std::size_t it = 0; it < 120; ++it) {
    const bool refactor = !fits();
    if (refactor) held.jac.set_zero();
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (dirichlet[idx]) {
        if (refactor) held.jac.at(idx, idx) = 1.0;
        rhs[idx] = 0.0;
        continue;
      }
      const std::size_t i = m.i_of(idx);
      const std::size_t j = m.j_of(idx);
      double f = 0.0;
      double diag = 0.0;
      const auto edge = [&](std::size_t nb, double dist, double area) {
        const bool oxide = !dev.is_silicon(idx) || !dev.is_silicon(nb);
        const double k = (oxide ? sp::kEpsSiO2 : sp::kEpsSi) * area / dist;
        f += k * (psi[nb] - psi[idx]);
        diag -= k;
        if (refactor && nb < idx && !dirichlet[nb]) held.jac.at(idx, nb) = k;
      };
      if (i > 0) {
        edge(m.index(i - 1, j), m.x(i) - m.x(i - 1),
             m.dy_minus(j) + m.dy_plus(j));
      }
      if (i + 1 < m.nx()) {
        edge(m.index(i + 1, j), m.x(i + 1) - m.x(i),
             m.dy_minus(j) + m.dy_plus(j));
      }
      if (j > 0) {
        edge(m.index(i, j - 1), m.y(j) - m.y(j - 1),
             m.dx_minus(i) + m.dx_plus(i));
      }
      if (j + 1 < m.ny()) {
        edge(m.index(i, j + 1), m.y(j + 1) - m.y(j),
             m.dx_minus(i) + m.dx_plus(i));
      }
      if (dev.is_silicon(idx)) {
        const double qbox = sp::kQ * m.box_area(i, j);
        const double nn = st::boltzmann_n(psi[idx], phi_n[idx], ni, vt);
        const double pp = st::boltzmann_p(psi[idx], phi_p[idx], ni, vt);
        f += qbox * (pp - nn + dev.net_doping()[idx]);
        diag -= qbox * (nn + pp) / vt;
      }
      if (refactor) held.jac.at(idx, idx) = diag;
      rhs[idx] = -f;
    }
    result.iterations = it + 1;
    if (refactor) {
      held.factored = false;
      ++result.factorizations;
      try {
        sl::banded_ldlt_factor_in_place(held.jac);
      } catch (const std::runtime_error&) {
        result.status = st::SolveStatus::kNonFinite;
        return result;
      }
      held.psi = psi;
      held.phi_n = phi_n;
      held.phi_p = phi_p;
      held.factored = true;
    }
    sl::banded_ldlt_solve(held.jac, rhs);
    double max_update = 0.0;
    double max_psi = 0.0;
    bool finite = true;
    for (std::size_t idx = 0; idx < n_nodes; ++idx) {
      if (dirichlet[idx]) continue;
      const double d = std::clamp(rhs[idx], -0.1, 0.1);
      psi[idx] += d;
      max_update = std::max(max_update, std::abs(d));
      max_psi = std::max(max_psi, std::abs(psi[idx]));
      finite = finite && std::isfinite(psi[idx]);
    }
    result.max_update = max_update;
    if (!finite) {
      result.status = st::SolveStatus::kNonFinite;
      return result;
    }
    if (max_psi > 50.0) {
      result.status = st::SolveStatus::kDiverged;
      return result;
    }
    if (max_update < st::PoissonOptions{}.update_tolerance) {
      result.converged = true;
      result.status = st::SolveStatus::kConverged;
      return result;
    }
  }
  return result;
}

}  // namespace

TEST(PoissonAssembly, MatchesFullMeshReferenceBitwise) {
  // On the 90 nm device at a biased state, two drain steps of Poisson's
  // Newton loop at frozen quasi-Fermi levels give the full-mesh
  // reference's potential bit for bit, with the same Newton iteration
  // and factorization counts: out of one workspace carried across both
  // steps, whose held factor the reference mirrors, and without one.
  const st::DeviceStructure dev(nfet_90());
  st::DriftDiffusionSolver solver(dev);
  solver.solve_equilibrium();
  ASSERT_TRUE(solver.try_solve_bias({0.6, 0.5}).converged);
  const std::size_t n_nodes = dev.mesh().node_count();
  const double ni = dev.ni();
  const double vt = dev.vt();
  // The quasi-Fermi levels as the Gummel loop forms them.
  std::vector<double> phi_n(n_nodes, 0.0);
  std::vector<double> phi_p(n_nodes, 0.0);
  for (std::size_t idx = 0; idx < n_nodes; ++idx) {
    if (!dev.is_silicon(idx)) continue;
    const double nn = std::max(solver.state().n[idx], 1e-20 * ni);
    const double pp = std::max(solver.state().p[idx], 1e-20 * ni);
    phi_n[idx] = solver.state().psi[idx] - vt * std::log(nn / ni);
    phi_p[idx] = solver.state().psi[idx] + vt * std::log(pp / ni);
  }

  ReferenceFactor held(dev.mesh());
  st::PoissonWorkspace workspace;
  std::vector<double> want = solver.state().psi;
  std::vector<double> got = solver.state().psi;
  std::size_t iterations = 0;
  std::size_t factorizations = 0;
  for (const double vd : {0.55, 0.6}) {
    const std::string label = "vd " + std::to_string(vd);
    const st::BiasPoint bias{0.6, vd};
    std::vector<double> want_fresh = want;
    ReferenceFactor held_fresh(dev.mesh());
    const st::PoissonResult ref_fresh =
        reference_poisson(dev, bias, phi_n, phi_p, want_fresh, held_fresh);
    std::vector<double> fresh = want;
    const st::PoissonResult res_fresh =
        st::solve_poisson(dev, bias, phi_n, phi_p, fresh);
    EXPECT_EQ(res_fresh.iterations, ref_fresh.iterations) << label;
    EXPECT_EQ(res_fresh.factorizations, ref_fresh.factorizations) << label;
    EXPECT_EQ(first_bit_difference(fresh, want_fresh), n_nodes) << label;

    const st::PoissonResult ref =
        reference_poisson(dev, bias, phi_n, phi_p, want, held);
    ASSERT_TRUE(ref.converged) << label;
    const st::PoissonResult res = st::solve_poisson(
        dev, bias, phi_n, phi_p, got, {}, nullptr, &workspace);
    EXPECT_TRUE(res.converged) << label;
    EXPECT_EQ(res.iterations, ref.iterations) << label;
    EXPECT_EQ(res.factorizations, ref.factorizations) << label;
    EXPECT_EQ(std::memcmp(&res.max_update, &ref.max_update, sizeof(double)),
              0)
        << label;
    EXPECT_EQ(first_bit_difference(got, want), n_nodes) << label;
    iterations += ref.iterations;
    factorizations += ref.factorizations;
  }
  // Both the factoring and the held-factor paths ran.
  EXPECT_GT(factorizations, 0u);
  EXPECT_GT(iterations, factorizations);
}

// ---- the continuity workspace's Bernoulli pairs ------------------------------

namespace {

/// The coarse 90 nm device at V_g = 0.6 V, V_d = 0.5 V.
struct BiasedState {
  st::DeviceStructure dev{nfet_90(), st::kCoarseMesh};
  std::vector<double> psi, n, p;
  BiasedState() {
    st::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    EXPECT_TRUE(solver.try_solve_bias({0.6, 0.5}).converged);
    psi = solver.state().psi;
    n = solver.state().n;
    p = solver.state().p;
  }
};

const BiasedState& biased_state() {
  static const BiasedState state;
  return state;
}

/// Solves one continuity system out of `workspace` and out of a fresh
/// one, and expects the two results to be equal bit for bit.
void expect_workspace_matches_fresh(const st::DeviceStructure& dev,
                                    sp::Carrier carrier,
                                    const std::vector<double>& psi,
                                    const std::vector<double>& other,
                                    const std::vector<double>& start,
                                    st::SgWorkspace& workspace,
                                    const std::string& label) {
  std::vector<double> got = start;
  const st::ContinuityResult res = st::solve_continuity(
      dev, carrier, psi, other, got, nullptr, &workspace);
  std::vector<double> want = start;
  const st::ContinuityResult ref =
      st::solve_continuity(dev, carrier, psi, other, want);
  EXPECT_EQ(res.status, st::SolveStatus::kConverged) << label;
  EXPECT_EQ(res.status, ref.status) << label;
  EXPECT_EQ(res.clamped_nodes, ref.clamped_nodes) << label;
  EXPECT_EQ(std::memcmp(&res.max_density, &ref.max_density, sizeof(double)),
            0)
      << label;
  EXPECT_EQ(first_bit_difference(got, want), want.size()) << label;
}

}  // namespace

TEST(SgWorkspace, HoleSolveAfterElectronSolveMatchesAFreshWorkspace) {
  // The hole solve that follows the electron solve at the same psi runs
  // on the Bernoulli pairs the electron solve computed, and gives what a
  // fresh workspace gives bit for bit.
  const BiasedState& s = biased_state();
  st::SgWorkspace workspace;
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kElectron, s.psi, s.p,
                                 s.n, workspace, "electrons");
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kHole, s.psi, s.n, s.p,
                                 workspace, "holes");
}

TEST(SgWorkspace, OneUlpChangeOfPsiRecomputesThePairs) {
  // A psi that differs from the last one in a single bit of one node
  // gets its own Bernoulli pairs. The node is the first free silicon
  // node where the one-ulp step changes a pair of one of its edges, so
  // pairs reused from the unchanged psi would show in the result.
  const BiasedState& s = biased_state();
  const sm::TensorMesh2d& m = s.dev.mesh();
  const double vt = s.dev.vt();
  std::vector<double> nudged = s.psi;
  std::size_t node = m.node_count();
  for (std::size_t idx = 0; idx < m.node_count() && node == m.node_count();
       ++idx) {
    if (!s.dev.is_silicon(idx) || s.dev.is_contact(idx)) continue;
    const double up = std::nextafter(s.psi[idx], 1.0e3);
    const std::size_t i = m.i_of(idx);
    const std::size_t j = m.j_of(idx);
    std::vector<std::size_t> neighbours;
    if (i > 0) neighbours.push_back(m.index(i - 1, j));
    if (i + 1 < m.nx()) neighbours.push_back(m.index(i + 1, j));
    if (j > 0) neighbours.push_back(m.index(i, j - 1));
    if (j + 1 < m.ny()) neighbours.push_back(m.index(i, j + 1));
    for (const std::size_t nb : neighbours) {
      if (!s.dev.silicon_edge(idx, nb)) continue;
      const sp::BernoulliPair before =
          sp::bernoulli_pair((s.psi[nb] - s.psi[idx]) / vt);
      const sp::BernoulliPair after =
          sp::bernoulli_pair((s.psi[nb] - up) / vt);
      if (before.at_x != after.at_x || before.at_minus_x != after.at_minus_x) {
        node = idx;
        nudged[idx] = up;
        break;
      }
    }
  }
  ASSERT_LT(node, m.node_count());

  st::SgWorkspace workspace;
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kElectron, s.psi, s.p,
                                 s.n, workspace, "electrons");
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kHole, nudged, s.n, s.p,
                                 workspace, "holes at the nudged psi");
}

TEST(SgWorkspace, FiniteSolveAfterNonFiniteFailureMatchesAFreshWorkspace) {
  // An electron solve at a psi with a NaN fails and leaves the pairs of
  // that psi behind; the hole solve at the finite psi that follows
  // computes its own and gives what a fresh workspace gives.
  const BiasedState& s = biased_state();
  const sm::TensorMesh2d& m = s.dev.mesh();
  const std::size_t js = m.y_grid().nearest_index(0.0);
  const std::size_t channel = m.index(m.nx() / 2, js + 2);
  ASSERT_TRUE(s.dev.is_silicon(channel) && !s.dev.is_contact(channel));
  std::vector<double> bad = s.psi;
  bad[channel] = std::nan("");
  st::SgWorkspace workspace;
  std::vector<double> n = s.n;
  const st::ContinuityResult failed = st::solve_continuity(
      s.dev, sp::Carrier::kElectron, bad, s.p, n, nullptr, &workspace);
  EXPECT_EQ(failed.status, st::SolveStatus::kNonFinite);
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kHole, s.psi, s.n, s.p,
                                 workspace, "holes");
}

TEST(SgWorkspace, RebindToAnotherDeviceDropsThePairs) {
  // The same device at 350 K has the same mesh and edges but another
  // thermal voltage, so pairs carried over from the 300 K device at the
  // same psi bytes would be wrong. The workspace rebinds and computes
  // its own.
  const BiasedState& s = biased_state();
  sc::DeviceSpec hot_spec = nfet_90();
  hot_spec.temperature = 350.0;
  const st::DeviceStructure hot(hot_spec, st::kCoarseMesh);
  ASSERT_EQ(hot.mesh().node_count(), s.dev.mesh().node_count());
  ASSERT_NE(hot.vt(), s.dev.vt());
  st::SgWorkspace workspace;
  expect_workspace_matches_fresh(s.dev, sp::Carrier::kElectron, s.psi, s.p,
                                 s.n, workspace, "electrons, 300 K");
  expect_workspace_matches_fresh(hot, sp::Carrier::kHole, s.psi, s.n, s.p,
                                 workspace, "holes, 350 K");
}

// ---- extraction utilities -----------------------------------------------------------

TEST(Extract, ExactOnSyntheticExponential) {
  // id = 1e-6 * 10^(vg / 0.090): S_S must extract to exactly 90 mV/dec.
  std::vector<st::IdVgPoint> sweep;
  for (int k = 0; k <= 20; ++k) {
    const double vg = 0.025 * k;
    sweep.push_back({vg, 1e-6 * std::pow(10.0, vg / 0.090)});
  }
  const auto ex = st::extract_from_sweep(sweep);
  EXPECT_NEAR(ex.ss, 0.090, 1e-6);
  EXPECT_NEAR(ex.ss_r2, 1.0, 1e-9);
  // vth_cc: the 0.1 A/m criterion is crossed at
  // vg = 0.090*log10(0.1/1e-6) = 0.450.
  EXPECT_NEAR(ex.vth_cc, 0.450, 1e-4);
}

TEST(Extract, RejectsBadSweeps) {
  std::vector<st::IdVgPoint> tiny = {{0.0, 1e-9}, {0.1, 1e-8}};
  EXPECT_THROW(st::extract_from_sweep(tiny), std::invalid_argument);
  std::vector<st::IdVgPoint> nonmono;
  for (int k = 0; k < 8; ++k) nonmono.push_back({0.1 * k, 1e-9});
  nonmono[3].vg = nonmono[2].vg;  // not strictly ascending
  EXPECT_THROW(st::extract_from_sweep(nonmono), std::invalid_argument);
  std::vector<st::IdVgPoint> negative;
  for (int k = 0; k < 8; ++k) negative.push_back({0.1 * k, -1.0});
  EXPECT_THROW(st::extract_from_sweep(negative), std::invalid_argument);
}

TEST(Extract, DiblFromTwoSyntheticSweeps) {
  const auto make = [](double vth) {
    std::vector<st::IdVgPoint> sweep;
    for (int k = 0; k <= 20; ++k) {
      const double vg = 0.03 * k;
      // The 0.1 A/m V_th criterion is crossed at vg = vth.
      sweep.push_back({vg, 1e-1 * std::pow(10.0, (vg - vth) / 0.090)});
    }
    return sweep;
  };
  // 40 mV of roll-off over 0.95 V of drain bias -> DIBL = 42.1 mV/V.
  const double dibl = st::extract_dibl(make(0.40), 0.05, make(0.36), 1.0);
  EXPECT_NEAR(dibl, 0.04 / 0.95, 1e-6);
  EXPECT_THROW(st::extract_dibl(make(0.4), 1.0, make(0.4), 0.05),
               std::invalid_argument);
}

// ---- solver resilience ----------------------------------------------------------

namespace {

/// Fault the given stage once, at gate biases in [0.18 V, 0.22 V).
st::GummelOptions faulted_options(st::SolveStage stage, long count) {
  st::GummelOptions opt;
  opt.fault.stage = stage;
  opt.fault.count = count;
  opt.fault.min_bias = 0.18;
  opt.fault.max_bias = 0.22;
  return opt;
}

/// Unfaulted reference current at (vg=0.3, vd=0.25) on the coarse mesh.
double reference_id() {
  static const double id = [] {
    st::TcadDevice dev(nfet_90(), st::kCoarseMesh);
    return dev.id_at(0.3, 0.25);
  }();
  return id;
}

}  // namespace

TEST(GummelOptions, ValidationRejectsBadFields) {
  const auto expect_invalid = [](st::GummelOptions opt, const char* field) {
    try {
      opt.validate();
      FAIL() << "expected invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  st::GummelOptions opt;
  opt.bias_step = 0.0;  // would make solve_bias ramp forever
  expect_invalid(opt, "bias_step");
  opt = {};
  opt.bias_step = -0.1;
  expect_invalid(opt, "bias_step");
  opt = {};
  opt.psi_tolerance = 0.0;
  expect_invalid(opt, "psi_tolerance");
  opt = {};
  opt.bias_step = 0.5 * st::kMinBiasStep;  // below the halving floor
  expect_invalid(opt, "bias_step");
  opt = {};
  opt.max_iterations = 0;
  expect_invalid(opt, "max_iterations");
  opt = {};
  opt.poisson.update_tolerance = -1e-9;
  expect_invalid(opt, "poisson.update_tolerance");
  opt = {};
  opt.fault.stage = st::SolveStage::kPoisson;
  opt.fault.min_bias = 0.3;
  opt.fault.max_bias = 0.2;
  expect_invalid(opt, "fault");

  // The solver constructor runs the same validation.
  st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  st::GummelOptions bad;
  bad.bias_step = 0.0;
  EXPECT_THROW(st::DriftDiffusionSolver(dev, bad), std::invalid_argument);
}

TEST(SolverResilience, PoissonFaultRecoversByStepHalving) {
  // A forced Poisson failure at the gate=0.2V continuation point must be
  // absorbed by the retry policy (roll back, halve the step) and the
  // terminal current must match the unfaulted solve.
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh,
                     faulted_options(st::SolveStage::kPoisson, 1));
  const double id = dev.id_at(0.3, 0.25);
  const auto& report = dev.solver().last_report();
  EXPECT_TRUE(report.converged);
  EXPECT_GE(report.retries, 1u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().stage, st::SolveStage::kPoisson);
  EXPECT_EQ(dev.solver().pending_faults(), 0);  // the fault did fire
  EXPECT_NEAR(id / reference_id(), 1.0, 1e-3);
}

TEST(SolverResilience, ContinuityFaultRecoversByStepHalving) {
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh,
                     faulted_options(st::SolveStage::kContinuity, 1));
  const double id = dev.id_at(0.3, 0.25);
  const auto& report = dev.solver().last_report();
  EXPECT_TRUE(report.converged);
  EXPECT_GE(report.retries, 1u);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_EQ(report.failures.front().stage, st::SolveStage::kContinuity);
  EXPECT_EQ(report.failures.front().status, st::SolveStatus::kNonFinite);
  EXPECT_NEAR(id / reference_id(), 1.0, 1e-3);
}

TEST(SolverResilience, ExhaustedRetriesReportStageAndBias) {
  // An unrecoverable point (the fault never heals and the target itself
  // sits inside the fault window) must exhaust step-halving and damping,
  // report the failing stage and bias, leave the solver at the last-good
  // state — and not poison later bias points.
  st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  st::DriftDiffusionSolver solver(
      dev, faulted_options(st::SolveStage::kPoisson, 1'000'000'000));
  solver.solve_equilibrium();

  const auto& report = solver.try_solve_bias({0.20, 0.25});
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.failed_stage, st::SolveStage::kPoisson);
  EXPECT_EQ(report.status, st::SolveStatus::kStalled);
  EXPECT_GE(report.failed_at.vg, 0.18);
  EXPECT_LT(report.failed_at.vg, 0.22);
  EXPECT_GE(report.retries, 3u);  // halvings + damping tightenings
  // Both knobs were driven to their floors before giving up.
  EXPECT_DOUBLE_EQ(report.final_bias_step, st::kMinBiasStep);
  EXPECT_DOUBLE_EQ(report.final_damping, st::kMinDamping);
  // The digest names the stage and the bias point.
  const std::string digest = report.summary();
  EXPECT_NE(digest.find("Poisson"), std::string::npos) << digest;
  EXPECT_NE(digest.find("stalled"), std::string::npos) << digest;
  EXPECT_NE(digest.find("gate"), std::string::npos) << digest;

  // State rolled back to the last converged point: currents are finite.
  EXPECT_TRUE(std::isfinite(solver.terminal_current("drain")));

  // TcadDevice::id_at has no partial result to return: under the same
  // fault options it throws the same failure, with the report attached.
  st::TcadDevice device(
      nfet_90(), st::kCoarseMesh,
      faulted_options(st::SolveStage::kPoisson, 1'000'000'000));
  try {
    device.id_at(0.20, 0.25);
    FAIL() << "expected SolverError";
  } catch (const st::SolverError& e) {
    EXPECT_FALSE(e.report().converged);
    EXPECT_EQ(e.report().failed_stage, st::SolveStage::kPoisson);
  }

  // A target outside the fault window still solves from the rolled-back
  // state: one bad point does not take down the rest of the sweep.
  EXPECT_TRUE(solver.try_solve_bias({0.30, 0.25}).converged);
  EXPECT_TRUE(std::isfinite(solver.terminal_current("drain")));
}

TEST(SolverResilience, SweepSkipsUnrecoverablePointAndContinues) {
  // In a 10-point sweep with a permanently faulted window around
  // vg=0.2V, only that point is lost: it is recorded in the sweep
  // report and every other point converges with a sane current.
  st::GummelOptions faulty =
      faulted_options(st::SolveStage::kPoisson, 1'000'000'000);
  faulty.fault.min_bias = 0.19;
  faulty.fault.max_bias = 0.21;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, faulty);

  const st::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 10);
  const auto& report = sweep.report;
  EXPECT_EQ(report.attempted, 10u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NEAR(report.failures.front().vg, 0.20, 1e-12);
  EXPECT_EQ(report.failures.front().report.failed_stage,
            st::SolveStage::kPoisson);
  ASSERT_EQ(sweep.size(), 9u);
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GT(sweep[k].id, sweep[k - 1].id) << "k=" << k;
  }

  // Every attempted point carries an effort record; the lost one is
  // flagged, the rest converged with real solver work behind them.
  ASSERT_EQ(sweep.timings.size(), 10u);
  std::size_t converged = 0;
  for (const auto& rec : sweep.timings) {
    if (rec.converged) {
      ++converged;
      EXPECT_GT(rec.gummel_iterations, 0u);
    } else {
      EXPECT_NEAR(rec.vg, 0.20, 1e-12);
      EXPECT_GT(rec.retries, 0u);
    }
    EXPECT_GE(rec.wall_ms, 0.0);
  }
  EXPECT_EQ(converged, 9u);
}

TEST(SolverResilience, EquilibriumFaultRecoversWithTightenedDamping) {
  // Faults at zero bias hit solve_equilibrium, whose only retry knob is
  // under-relaxation; two injected failures take two tightenings.
  st::GummelOptions opt;
  opt.fault.stage = st::SolveStage::kContinuity;
  opt.fault.count = 2;
  st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  st::DriftDiffusionSolver solver(dev, opt);
  solver.solve_equilibrium();
  const auto& report = solver.last_report();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_LT(report.final_damping, 1.0);

  // A fault that never heals exhausts the damping ladder and throws.
  opt.fault.count = 1'000'000'000;
  st::DriftDiffusionSolver doomed(dev, opt);
  EXPECT_THROW(doomed.solve_equilibrium(), st::SolverError);
}

namespace {

/// The coarse 90 nm device at equilibrium: its state and zero bias.
struct EquilibriumState {
  st::DeviceStructure dev{nfet_90(), st::kCoarseMesh};
  std::vector<double> psi, n, p;
  st::BiasPoint bias;
  EquilibriumState() {
    st::DriftDiffusionSolver solver(dev);
    solver.solve_equilibrium();
    psi = solver.state().psi;
    n = solver.state().n;
    p = solver.state().p;
  }
  /// A silicon node that is no contact, in the channel.
  std::size_t free_silicon_node() const {
    const auto& m = dev.mesh();
    const std::size_t js = m.y_grid().nearest_index(0.0);
    const std::size_t idx = m.index(m.nx() / 2, js + 2);
    EXPECT_TRUE(dev.is_silicon(idx) && !dev.is_contact(idx));
    return idx;
  }
};

}  // namespace

TEST(SolverResilience, NonFiniteQuasiFermiLevelFailsPoissonAsNonFinite) {
  // A NaN quasi-Fermi level makes a Jacobian pivot NaN. The factorization
  // throws, and solve_poisson reports kNonFinite instead of letting the
  // exception escape try_solve_bias, which the Gummel ladder then rolls
  // back like any failed stage.
  const EquilibriumState eq;
  std::vector<double> phi_n(eq.psi.size(), 0.0);
  std::vector<double> phi_p(eq.psi.size(), 0.0);
  phi_n[eq.free_silicon_node()] = std::nan("");
  std::vector<double> psi = eq.psi;
  st::PoissonResult result;
  EXPECT_NO_THROW(result = st::solve_poisson(eq.dev, eq.bias, phi_n,
                                             phi_p, psi));
  EXPECT_EQ(result.status, st::SolveStatus::kNonFinite);
  EXPECT_FALSE(result.converged);

  // A NaN potential at an oxide node leaves the Jacobian finite (oxide
  // rows do not depend on psi) and reaches the Newton step through the
  // residual instead; the step guard reports that as kNonFinite too.
  const auto& m = eq.dev.mesh();
  const std::size_t oxide = m.index(m.nx() / 2, 1);
  ASSERT_FALSE(eq.dev.is_silicon(oxide));
  ASSERT_FALSE(eq.dev.is_contact(oxide));
  psi = eq.psi;
  psi[oxide] = std::nan("");
  phi_n.assign(eq.psi.size(), 0.0);
  result = st::solve_poisson(eq.dev, eq.bias, phi_n, phi_p, psi);
  EXPECT_EQ(result.status, st::SolveStatus::kNonFinite);
}

TEST(SolverResilience, NonFinitePotentialFailsContinuityAsNonFinite) {
  // A NaN potential makes every coefficient of its rows NaN, its pivot
  // included, so the LU throws. solve_continuity reports kNonFinite and
  // leaves the density as it came in; the workspace it used solves the
  // next, finite system bit for bit as a fresh one does.
  const EquilibriumState eq;
  std::vector<double> psi = eq.psi;
  psi[eq.free_silicon_node()] = std::nan("");
  st::SgWorkspace workspace;
  std::vector<double> n = eq.n;
  st::ContinuityResult result;
  EXPECT_NO_THROW(result = st::solve_continuity(
                      eq.dev, sp::Carrier::kElectron, psi, eq.p, n, nullptr,
                      &workspace));
  EXPECT_EQ(result.status, st::SolveStatus::kNonFinite);
  EXPECT_EQ(first_bit_difference(n, eq.n), n.size());

  std::vector<double> reused = eq.n;
  result = st::solve_continuity(eq.dev, sp::Carrier::kElectron, eq.psi, eq.p,
                                reused, nullptr, &workspace);
  EXPECT_EQ(result.status, st::SolveStatus::kConverged);
  std::vector<double> fresh = eq.n;
  st::solve_continuity(eq.dev, sp::Carrier::kElectron, eq.psi, eq.p, fresh);
  EXPECT_EQ(first_bit_difference(reused, fresh), fresh.size());
}

// ---- the Poisson workspace's held factor -----------------------------------

TEST(PoissonWorkspace, BiasSolveAfterAdoptedEquilibriumMatchesTheColdOne) {
  // A Gummel solve starts without a held Poisson factor, so a bias solve
  // from an adopted equilibrium (a cache restore holds no factor) is bit
  // for bit the same solve as one straight after the cold equilibrium,
  // whose last Newton iteration left a factor behind.
  const st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  st::DriftDiffusionSolver cold(dev);
  cold.solve_equilibrium();
  st::DriftDiffusionSolver adopted(dev);
  ASSERT_TRUE(adopted.adopt_state(cold.bias(), cold.state()));
  ASSERT_TRUE(cold.try_solve_bias({0.3, 0.25}).converged);
  ASSERT_TRUE(adopted.try_solve_bias({0.3, 0.25}).converged);
  EXPECT_EQ(adopted.last_report().total_gummel_iterations,
            cold.last_report().total_gummel_iterations);
  EXPECT_EQ(first_bit_difference(adopted.state().psi, cold.state().psi),
            cold.state().psi.size());
  EXPECT_EQ(first_bit_difference(adopted.state().n, cold.state().n),
            cold.state().psi.size());
  EXPECT_EQ(first_bit_difference(adopted.state().p, cold.state().p),
            cold.state().psi.size());
  const double id_cold = cold.terminal_current("drain");
  const double id_adopted = adopted.terminal_current("drain");
  EXPECT_EQ(std::memcmp(&id_cold, &id_adopted, sizeof(double)), 0);
}

TEST(PoissonWorkspace, FailedFactorizationLeavesNoHeldFactor) {
  // At a converged state one Newton iteration meets the stop. The first
  // call factors; a second call at the same state runs on the held
  // factor. A call whose factorization fails (a NaN quasi-Fermi level)
  // leaves no factor behind, so the next call at that same converged
  // state factors again in its first iteration.
  const EquilibriumState eq;
  const std::vector<double> zero(eq.psi.size(), 0.0);
  st::PoissonWorkspace workspace;
  std::vector<double> psi = eq.psi;
  st::PoissonResult result = st::solve_poisson(
      eq.dev, eq.bias, zero, zero, psi, {}, nullptr, &workspace);
  ASSERT_TRUE(result.converged);
  const std::vector<double> converged = psi;

  result = st::solve_poisson(eq.dev, eq.bias, zero, zero, psi, {}, nullptr,
                             &workspace);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.factorizations, 0u);

  std::vector<double> phi_n = zero;
  phi_n[eq.free_silicon_node()] = std::nan("");
  psi = converged;
  result = st::solve_poisson(eq.dev, eq.bias, phi_n, zero, psi, {}, nullptr,
                             &workspace);
  EXPECT_EQ(result.status, st::SolveStatus::kNonFinite);
  EXPECT_EQ(result.factorizations, 1u);

  psi = converged;
  result = st::solve_poisson(eq.dev, eq.bias, zero, zero, psi, {}, nullptr,
                             &workspace);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.factorizations, 1u);
  std::vector<double> fresh = converged;
  st::solve_poisson(eq.dev, eq.bias, zero, zero, fresh);
  EXPECT_EQ(first_bit_difference(psi, fresh), fresh.size());
}

// ---- seeded solves ----------------------------------------------------------------

namespace {

/// What one solve leaves behind: the solver's state, bias point and
/// report, and every counter it published.
struct SolveOutcome {
  st::State state;
  st::BiasPoint bias;
  st::SolverReport report;
  std::map<std::string, std::uint64_t> counters;
};

/// Runs `solve` on a fresh solver of `dev` with its own registry.
template <typename Solve>
SolveOutcome run_solve(const st::DeviceStructure& dev, Solve&& solve) {
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  st::DriftDiffusionSolver solver(dev, {}, ctx);
  solve(solver);
  SolveOutcome out{solver.state(), solver.bias(), solver.last_report(),
                   {}};
  for (const auto& [name, value] : reg.snapshot().counters) {
    out.counters[name] = value;
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The state, bias point and report of `got` equal `want`'s bit for bit.
void expect_same_solve(const SolveOutcome& got, const SolveOutcome& want,
                       const std::string& label) {
  const st::State& gs = got.state;
  const st::State& ws = want.state;
  ASSERT_EQ(gs.psi.size(), ws.psi.size()) << label;
  EXPECT_EQ(first_bit_difference(gs.psi, ws.psi), ws.psi.size()) << label;
  EXPECT_EQ(first_bit_difference(gs.n, ws.n), ws.n.size()) << label;
  EXPECT_EQ(first_bit_difference(gs.p, ws.p), ws.p.size()) << label;
  EXPECT_EQ(got.bias, want.bias) << label;
  const st::SolverReport& g = got.report;
  const st::SolverReport& w = want.report;
  EXPECT_EQ(g.converged, w.converged) << label;
  EXPECT_EQ(g.failed_stage, w.failed_stage) << label;
  EXPECT_EQ(g.status, w.status) << label;
  EXPECT_EQ(g.target, w.target) << label;
  EXPECT_EQ(g.failed_at, w.failed_at) << label;
  EXPECT_EQ(g.continuation_steps, w.continuation_steps) << label;
  EXPECT_EQ(g.retries, w.retries) << label;
  EXPECT_EQ(g.total_gummel_iterations, w.total_gummel_iterations) << label;
  EXPECT_TRUE(same_bits(g.final_residual, w.final_residual)) << label;
  EXPECT_TRUE(same_bits(g.final_bias_step, w.final_bias_step)) << label;
  EXPECT_TRUE(same_bits(g.final_damping, w.final_damping)) << label;
  EXPECT_EQ(g.seed_used, w.seed_used) << label;
  EXPECT_EQ(g.failures.size(), w.failures.size()) << label;
}

}  // namespace

TEST(SeededSolve, SeedThatDoesNotFitTheMeshIsIgnored) {
  // A seed a node short, or with a NaN at one node, is no state of this
  // mesh: both entry points ignore it, so the equilibrium and the bias
  // solve are the unseeded ones bit for bit, counters included, with
  // seed_used false and no rollback counted.
  const st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  const SolveOutcome eq = run_solve(
      dev, [](st::DriftDiffusionSolver& s) { s.solve_equilibrium(); });
  const SolveOutcome biased = run_solve(dev, [](st::DriftDiffusionSolver& s) {
    s.try_solve_bias({0.3, 0.25});
  });
  ASSERT_TRUE(biased.report.converged);
  const std::size_t node = biased.state.psi.size() / 2;
  for (const bool nan_seed : {false, true}) {
    const std::string label = nan_seed ? "NaN seed" : "short seed";
    const auto malformed = [&](const SolveOutcome& from) {
      st::State seed = from.state;
      if (nan_seed) {
        seed.n[node] = std::nan("");
      } else {
        seed.psi.pop_back();
      }
      return seed;
    };
    const st::State eq_seed = malformed(eq);
    const SolveOutcome got_eq =
        run_solve(dev, [&](st::DriftDiffusionSolver& s) {
          EXPECT_FALSE(s.solve_equilibrium(&eq_seed).seed_used);
        });
    expect_same_solve(got_eq, eq, label + " equilibrium");
    EXPECT_FALSE(got_eq.report.seed_used) << label;
    EXPECT_EQ(got_eq.counters, eq.counters) << label;

    const st::State bias_seed = malformed(biased);
    const SolveOutcome got_bias =
        run_solve(dev, [&](st::DriftDiffusionSolver& s) {
          s.solve_equilibrium();
          s.try_solve_bias({0.3, 0.25}, &bias_seed);
        });
    expect_same_solve(got_bias, biased, label + " bias");
    EXPECT_FALSE(got_bias.report.seed_used) << label;
    EXPECT_EQ(got_bias.counters, biased.counters) << label;
    EXPECT_EQ(got_bias.counters.at(so::names::kGummelRollbacks), 0u)
        << label;
  }
}

TEST(SeededSolve, DivergingSeedIsRolledBackBeforeTheRamp) {
  // A seed that fits the mesh but sits 60 V above the solution, past the
  // 50 V divergence guard, fails its single-shot solve and is rolled
  // back. The ramp that follows starts from the held equilibrium, so it
  // reaches the unseeded call's state and report bit for bit; the one
  // rollback is the seed's.
  const st::DeviceStructure dev(nfet_90(), st::kCoarseMesh);
  const SolveOutcome want = run_solve(dev, [](st::DriftDiffusionSolver& s) {
    s.try_solve_bias({0.3, 0.25});
  });
  ASSERT_TRUE(want.report.converged);
  st::State seed = want.state;
  for (double& v : seed.psi) v += 60.0;
  const SolveOutcome got = run_solve(dev, [&](st::DriftDiffusionSolver& s) {
    s.solve_equilibrium();
    s.try_solve_bias({0.3, 0.25}, &seed);
  });
  expect_same_solve(got, want, "diverging seed");
  EXPECT_FALSE(got.report.seed_used);
  EXPECT_EQ(got.counters.at(so::names::kGummelRollbacks),
            want.counters.at(so::names::kGummelRollbacks) + 1);
}

TEST(BiasPoint, OfReadsGateAndDrainAndGroundsSourceAndBulk) {
  // A bias point holds V_g and V_d; the source and bulk are grounded at
  // +0.0, and a contact no device has is an error that names it.
  const st::BiasPoint bias{0.3, 0.25};
  EXPECT_TRUE(same_bits(bias.of("gate"), 0.3));
  EXPECT_TRUE(same_bits(bias.of("drain"), 0.25));
  EXPECT_TRUE(same_bits(bias.of("source"), 0.0));
  EXPECT_TRUE(same_bits(bias.of("bulk"), 0.0));
  try {
    bias.of("body");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("body"), std::string::npos)
        << e.what();
  }
}

// ---- cross-validation: TCAD reproduces the paper's S_S degradation ------------------

TEST(TcadPaperTrend, LongerGateImprovesSwing) {
  // Fig. 7's underlying mechanism: at fixed doping and feature set, a
  // longer gate improves S_S. (Gates much shorter than the node's
  // feature set punch through entirely in the literal 2-D structure, so
  // the comparison runs on the well-behaved side: 90nm vs 65nm gates.)
  sc::DeviceSpec short_spec = nfet_90();  // lpoly = 65nm
  st::TcadDevice short_dev(short_spec, st::kCoarseMesh);
  const auto short_ex =
      st::extract_from_sweep(short_dev.id_vg(0.25, 0.0, 0.40, 11));

  sc::DeviceSpec long_spec = nfet_90();
  long_spec.geometry.lpoly = 90e-9;  // same features, longer gate
  st::TcadDevice long_dev(long_spec, st::kCoarseMesh);
  const auto long_ex =
      st::extract_from_sweep(long_dev.id_vg(0.25, 0.0, 0.40, 11));

  EXPECT_GT(short_ex.ss, long_ex.ss);
}

// ---- node numbering on the paper devices ------------------------------------

namespace {

/// The paper-card devices: 4 nodes x 2 strategies.
std::vector<sc::DeviceSpec> paper_device_specs() {
  const subscale::core::ScalingStudy study;
  std::vector<sc::DeviceSpec> specs;
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    specs.push_back(study.super_devices()[i].spec);
    specs.push_back(study.sub_devices()[i].device.spec);
  }
  return specs;
}

}  // namespace

TEST(TcadMeshNumbering, PaperDevicesNumberAlongTheirShorterAxis) {
  // Every paper-card device (4 nodes x 2 strategies) has more mesh lines
  // along the channel (x) than into the substrate (y), on the fine mesh
  // and on each mesh-continuation level, so its nodes are numbered along
  // y and the TCAD band is ny (23 instead of 41 at 90 nm).
  const std::vector<sc::DeviceSpec> specs = paper_device_specs();
  ASSERT_EQ(specs.size(), 8u);
  const auto expect_y_fastest = [](const sm::TensorMesh2d& m,
                                   const std::string& label) {
    EXPECT_LT(m.ny(), m.nx()) << label;
    EXPECT_EQ(m.bandwidth(), m.ny()) << label;
    EXPECT_EQ(m.index(0, 1), 1u) << label;
    EXPECT_EQ(m.index(1, 0), m.ny()) << label;
  };
  st::GummelOptions options;
  options.mesh_continuation_levels = 2;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const std::string label = "device " + std::to_string(d);
    expect_y_fastest(st::make_device_structure(specs[d]).mesh(), label);
    const st::MeshContinuation cascade(specs[d], {}, options, {});
    ASSERT_EQ(cascade.level_count(), 2u) << label;
    for (std::size_t k = 0; k < cascade.level_count(); ++k) {
      expect_y_fastest(cascade.level_device(k).mesh(),
                       label + " level " + std::to_string(k));
    }
  }
}

TEST(TcadRowMaps, PaperDevicesNumberOnlyTheirUnknowns) {
  // On every paper-card device, on the default and the coarse mesh, the
  // continuity rows are the silicon nodes that are not contacts and the
  // Poisson rows the nodes that are not contacts, both in mesh order;
  // every 4-neighbour pair of rows lies within the band, which is at
  // most the mesh's bandwidth. The 90 nm super-V_th device's systems
  // have 767 rows at band 19 and 863 at band 22, against 943 at 23 with
  // every node a row.
  const std::vector<sc::DeviceSpec> specs = paper_device_specs();
  ASSERT_EQ(specs.size(), 8u);
  const auto expect_rows = [](const st::DeviceStructure& dev,
                              const sm::RowMap& rows, bool continuity,
                              const std::string& label) {
    const sm::TensorMesh2d& m = dev.mesh();
    ASSERT_EQ(rows.row.size(), m.node_count()) << label;
    std::vector<std::size_t> want;
    for (std::size_t idx = 0; idx < m.node_count(); ++idx) {
      const bool unknown = (dev.is_silicon(idx) || !continuity) &&
                           !dev.is_contact(idx);
      if (unknown) {
        EXPECT_EQ(rows.row[idx], want.size()) << label << " node " << idx;
        want.push_back(idx);
      } else {
        EXPECT_EQ(rows.row[idx], sm::RowMap::kNoRow) << label;
      }
    }
    EXPECT_EQ(rows.node, want) << label;
    EXPECT_LE(rows.band, m.bandwidth()) << label;
    std::size_t widest = 0;
    for (std::size_t i = 0; i < m.nx(); ++i) {
      for (std::size_t j = 0; j < m.ny(); ++j) {
        const std::size_t a = rows.row[m.index(i, j)];
        for (const std::size_t b :
             {i + 1 < m.nx() ? rows.row[m.index(i + 1, j)] : sm::RowMap::kNoRow,
              j + 1 < m.ny() ? rows.row[m.index(i, j + 1)]
                             : sm::RowMap::kNoRow}) {
          if (a == sm::RowMap::kNoRow || b == sm::RowMap::kNoRow) continue;
          widest = std::max(widest, a > b ? a - b : b - a);
        }
      }
    }
    EXPECT_EQ(widest, rows.band) << label;
  };
  for (std::size_t d = 0; d < specs.size(); ++d) {
    for (const bool coarse : {false, true}) {
      const std::string label =
          "device " + std::to_string(d) + (coarse ? " coarse" : " fine");
      const st::DeviceStructure dev =
          st::make_device_structure(specs[d], coarse ? st::kCoarseMesh
                                                     : st::MeshOptions{});
      const sm::RowMap flux = st::continuity_rows(dev);
      const sm::RowMap potential = st::poisson_rows(dev);
      expect_rows(dev, flux, true, label + " continuity");
      expect_rows(dev, potential, false, label + " poisson");
      if (d == 0 && !coarse) {
        EXPECT_EQ(dev.mesh().node_count(), 943u);
        EXPECT_EQ(dev.mesh().bandwidth(), 23u);
        EXPECT_EQ(flux.node.size(), 767u);
        EXPECT_EQ(flux.band, 19u);
        EXPECT_EQ(potential.node.size(), 863u);
        EXPECT_EQ(potential.band, 22u);
      }
    }
  }
}

TEST(PoissonWorkspace, RebindsWhenTheDeviceChanges) {
  // One workspace carried from the 90 nm super-V_th device to the 65 nm
  // one and back rebinds each time: its stencil, contact map and held
  // factor are the new device's, so every solve matches a fresh
  // workspace's bit for bit, with the same Newton and factorization
  // counts. Each problem is the first Poisson solve of a drain step: the
  // equilibrium potential, quasi-Fermi levels at 0 and the drain at
  // 0.25 V.
  const std::vector<sc::DeviceSpec> specs = paper_device_specs();
  const st::DeviceStructure dev90(specs[0], st::kCoarseMesh);
  const st::DeviceStructure dev65(specs[2], st::kCoarseMesh);
  ASSERT_NE(dev90.mesh().node_count(), dev65.mesh().node_count());
  const st::BiasPoint bias{0.0, 0.25};
  st::PoissonWorkspace carried;
  for (const st::DeviceStructure* dev : {&dev90, &dev65, &dev90}) {
    st::DriftDiffusionSolver solver(*dev);
    solver.solve_equilibrium();
    const std::vector<double> zero(solver.state().psi.size(), 0.0);
    std::vector<double> psi = solver.state().psi;
    const st::PoissonResult got = st::solve_poisson(
        *dev, bias, zero, zero, psi, {}, nullptr, &carried);
    std::vector<double> want_psi = solver.state().psi;
    const st::PoissonResult want =
        st::solve_poisson(*dev, bias, zero, zero, want_psi);
    ASSERT_TRUE(want.converged);
    EXPECT_GT(want.iterations, want.factorizations);
    EXPECT_TRUE(got.converged);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.factorizations, want.factorizations);
    EXPECT_EQ(first_bit_difference(psi, want_psi), want_psi.size());
  }
}

TEST(TcadDeviceMesh, PaperDevicesHaveSurfaceAtZeroAndDopedContacts) {
  // The oxide ticks -tox + (tox/L) k must not stand in for the interface:
  // at tox 1.70 and 1.53 nm (45/32 nm) k = L rounds to -2.07e-25 m, the
  // surface row then sits above y = 0, the doping profile leaves it
  // undoped, and the source/drain contacts land on p-type silicon. On
  // every paper device, fine mesh and mesh-continuation levels alike, the
  // interface row is exactly y = 0 and each source/drain contact node
  // carries the source/drain doping type.
  const std::vector<sc::DeviceSpec> specs = paper_device_specs();
  ASSERT_EQ(specs.size(), 8u);
  const auto expect_built = [](const st::DeviceStructure& dev,
                               const std::string& label) {
    const sm::TensorMesh2d& m = dev.mesh();
    const std::size_t js = m.y_grid().nearest_index(0.0);
    EXPECT_EQ(m.y(js), 0.0) << label;
    EXPECT_FALSE(dev.is_silicon(m.index(0, js - 1))) << label;
    const double sd_sign =
        dev.spec().polarity == sd::Polarity::kNfet ? 1.0 : -1.0;
    for (const char* contact : {"source", "drain"}) {
      const auto& nodes = m.contact_nodes(contact);
      ASSERT_FALSE(nodes.empty()) << label << " " << contact;
      for (const std::size_t idx : nodes) {
        EXPECT_EQ(m.j_of(idx), js) << label << " " << contact;
        EXPECT_GT(sd_sign * dev.net_doping()[idx], 0.0)
            << label << " " << contact << " node " << idx;
      }
    }
  };
  st::GummelOptions options;
  options.mesh_continuation_levels = 2;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const std::string label = "device " + std::to_string(d);
    expect_built(st::make_device_structure(specs[d]), label);
    const st::MeshContinuation cascade(specs[d], {}, options, {});
    ASSERT_EQ(cascade.level_count(), 2u) << label;
    for (std::size_t k = 0; k < cascade.level_count(); ++k) {
      expect_built(cascade.level_device(k),
                   label + " level " + std::to_string(k));
    }
  }
}

TEST(TcadDeviceMesh, MisDopedOhmicContactThrowsNamingTheContact) {
  // With nsd below nsub the 90 nm super-V_th device's diffusions come out
  // p-type, so its source and drain contacts sit on body-type silicon.
  // Construction must refuse that by name instead of handing Gummel an
  // equilibrium it cannot hold.
  sc::DeviceSpec spec = paper_device_specs()[0];
  spec.levels.nsd = 0.5 * spec.levels.nsub;
  try {
    const st::DeviceStructure dev(spec);
    FAIL() << "a mis-doped source contact was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("source contact"),
              std::string::npos)
        << e.what();
  }
}

// ---- mesh-continuation prolongation properties -------------------------------

namespace {

/// Uniform tensor mesh with spacing `h` (coordinates in metres; the
/// prolongation operators are pure interpolation, so simple grids
/// exercise them fully).
sm::TensorMesh2d uniform_mesh(std::size_t nx, std::size_t ny, double h) {
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t i = 0; i < nx; ++i) xs[i] = static_cast<double>(i) * h;
  for (std::size_t j = 0; j < ny; ++j) ys[j] = static_cast<double>(j) * h;
  return sm::TensorMesh2d(sm::Grid1d(std::move(xs)),
                          sm::Grid1d(std::move(ys)));
}

/// The same span at twice the resolution (contains every coarse line).
sm::TensorMesh2d refined_mesh(std::size_t nx, std::size_t ny, double h) {
  return uniform_mesh(2 * nx - 1, 2 * ny - 1, 0.5 * h);
}

}  // namespace

TEST(MeshContinuationProlongation, BilinearIsExactOnCoincidentNodes) {
  const auto coarse = uniform_mesh(5, 4, 1e-9);
  const auto fine = refined_mesh(5, 4, 1e-9);
  std::vector<double> f(coarse.node_count());
  for (std::size_t idx = 0; idx < f.size(); ++idx) {
    f[idx] = 0.25 * static_cast<double>(idx) - 3.0;
  }
  const auto pf = st::prolong_bilinear(coarse, fine, f);
  ASSERT_EQ(pf.size(), fine.node_count());
  for (std::size_t j = 0; j < coarse.ny(); ++j) {
    for (std::size_t i = 0; i < coarse.nx(); ++i) {
      // Coarse node (i, j) coincides with fine node (2i, 2j).
      EXPECT_DOUBLE_EQ(pf[fine.index(2 * i, 2 * j)], f[coarse.index(i, j)]);
    }
  }
}

TEST(MeshContinuationProlongation, BilinearIsBoundedAndMonotone) {
  const auto coarse = uniform_mesh(6, 5, 2e-9);
  const auto fine = refined_mesh(6, 5, 2e-9);
  // Monotone-in-x field with cross-row variation.
  std::vector<double> f(coarse.node_count());
  double lo = 1e300, hi = -1e300;
  for (std::size_t j = 0; j < coarse.ny(); ++j) {
    for (std::size_t i = 0; i < coarse.nx(); ++i) {
      f[coarse.index(i, j)] =
          static_cast<double>(i * i) + 0.1 * static_cast<double>(j);
      lo = std::min(lo, f[coarse.index(i, j)]);
      hi = std::max(hi, f[coarse.index(i, j)]);
    }
  }
  const auto pf = st::prolong_bilinear(coarse, fine, f);
  for (const double v : pf) {
    EXPECT_GE(v, lo);  // convex weights: no overshoot
    EXPECT_LE(v, hi);
  }
  for (std::size_t j = 0; j < fine.ny(); ++j) {
    for (std::size_t i = 0; i + 1 < fine.nx(); ++i) {
      // Per-axis monotonicity is preserved along every fine row.
      EXPECT_LE(pf[fine.index(i, j)], pf[fine.index(i + 1, j)]);
    }
  }
}

TEST(MeshContinuationProlongation, LogDensityBlendsGeometricallyAndFloors) {
  const auto coarse = uniform_mesh(3, 2, 1e-9);
  const auto fine = refined_mesh(3, 2, 1e-9);
  const double floor = 1e6;
  // Two decades-apart values and a zero (oxide) node per row.
  std::vector<double> rho(coarse.node_count());
  for (std::size_t j = 0; j < coarse.ny(); ++j) {
    rho[coarse.index(0, j)] = 1e10;
    rho[coarse.index(1, j)] = 1e20;
    rho[coarse.index(2, j)] = 0.0;
  }
  const auto pr = st::prolong_log_density(coarse, fine, rho, floor);
  ASSERT_EQ(pr.size(), fine.node_count());
  for (const double v : pr) {
    // exp(log(floor)) can land one ulp under the floor.
    EXPECT_GE(v, floor * (1.0 - 1e-12));  // zeros floored, never -inf
    EXPECT_LE(v, 1e20 * (1.0 + 1e-12));
  }
  // Midpoint between 1e10 and 1e20 blends geometrically: sqrt product.
  EXPECT_NEAR(std::log10(pr[fine.index(1, 0)]), 15.0, 1e-9);
  // A node coincident with the zeroed coarse node lands at the floor.
  EXPECT_NEAR(pr[fine.index(4, 0)], floor, 1e-9 * floor);
}

TEST(MeshContinuationProlongation, SameMeshRoundTripReconvergesImmediately) {
  // A converged state prolonged onto its own mesh is an identity: a
  // fresh solver seeded with it must certify the point in at most two
  // outer iterations (one to verify, one of slack) rather than re-run
  // the continuation ramp.
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh);
  dev.id_at(0.3, 0.25);
  const auto& m = dev.structure().mesh();
  const double floor = 1e-20 * dev.structure().ni();
  const st::State seed{
      st::prolong_bilinear(m, m, dev.solver().state().psi),
      st::prolong_log_density(m, m, dev.solver().state().n, floor),
      st::prolong_log_density(m, m, dev.solver().state().p, floor)};

  st::DriftDiffusionSolver fresh(dev.structure());
  const auto& report = fresh.try_solve_bias({0.3, 0.25}, &seed);
  EXPECT_TRUE(report.seed_used);
  EXPECT_LE(report.total_gummel_iterations, 2u);
}

TEST(MeshContinuationProlongation, CoarseOnlyFaultFallsBackToColdPath) {
  // A coarse cascade that cannot converge must be a counted
  // no-op — the fine solve runs the ordinary cold path and produces
  // the identical answer.
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  st::GummelOptions opt;
  opt.mesh_continuation_levels = 2;
  opt.fault.stage = st::SolveStage::kPoisson;
  opt.fault.count = 1'000'000'000;
  opt.fault.coarse_only = true;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, opt, ctx);
  EXPECT_DOUBLE_EQ(dev.id_at(0.3, 0.25), reference_id());
  EXPECT_GT(reg.counter(so::names::kMeshContFallbacks).value(), 0u);
}
