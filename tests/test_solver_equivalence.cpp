/// The differential-equivalence tier for the cold-solve accelerator:
/// the mesh-continuation cascade must land on the same converged state
/// as the seed Gummel solver on fixture-class devices — the
/// accelerator may only change how fast an answer arrives, never which
/// answer. Determinism rides along: mesh continuation must produce
/// bitwise-identical sweeps at 1, 2 and 4 threads.
///
/// What "the same answer" means here is deliberately two-tiered:
///
///  * STATE FIELDS (psi and the majority carrier n) agree at 1e-9 —
///    the full solution, and a well-conditioned comparison. Both
///    configs certify their converged point on the same Gummel fixed
///    point (a mesh-continuation guess is only an initial guess for the
///    fine solver), so with the stops in tight() the measured
///    config-to-config spread is <=1e-11 psi / <=2e-10 n: the 1e-9
///    bound carries about two orders of margin. The minority-carrier
///    hole field gets its own 2e-8 bound: the outer stop watches psi,
///    and at the stiff (vdd, vdd) corner the hole relaxation contracts
///    slowly against a ~1e-10 per-outer-iteration noise floor, so the
///    hole distance to the fixed point plateaus near 5e-9 even with the
///    stops tightened another 100x (measured; tightening further stalls
///    the ramp instead of helping).
///  * TERMINAL CURRENTS agree at 1e-5. The contact-flux evaluation sums
///    Scharfetter-Gummel edge fluxes in the n+ contact region, where
///    each edge is a small difference of near-equal large terms; the
///    gross/net flux ratio there reaches ~1e9 at subthreshold bias, so
///    relative state noise at the ~1e-15 linear-solve floor appears as
///    ~1e-6 current noise no matter how tightly the solves converge
///    (measured: cross-config current deltas of 2.4e-6 on the
///    sub-Vth fixture while the same states agree at 1e-14). The 1e-5
///    bound pins the currents at that functional's actual conditioning
///    limit; the field comparison above is the authoritative 1e-9
///    equivalence evidence.
///
/// Fixtures: the Table 2 rows the TCAD tier robustly holds (the 90nm
/// and 65nm paper nodes — the 45/32nm rows are the "aggressive
/// 32nm-class literal structures" whose equilibrium the seed solver
/// already cannot hold, see ScalingStudy::tcad_validation) plus the
/// Table 3 95nm sub-Vth node at its 0.3V operating supply. fig02/fig09
/// derive from the same device rows; the nanowire backend is pinned by
/// the must-throw guard at the bottom.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "compact/device_spec.h"
#include "exec/run_context.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tcad/device_sim.h"

namespace se = subscale::exec;
namespace so = subscale::obs;
namespace st = subscale::tcad;
namespace sc = subscale::compact;
namespace sd = subscale::doping;

namespace {

sc::DeviceSpec table2_90() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 65, 2.10, 1.52e18,
                                  3.63e18, 1.2, 1.0);
}
sc::DeviceSpec table2_65() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 46, 1.89, 1.97e18,
                                  5.17e18, 1.1, 0.700);
}
sc::DeviceSpec table3_95() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 95, 2.10, 1.61e18,
                                  2.02e18, 0.3, 1.0);
}

/// Field agreement bound for psi and the majority carrier.
constexpr double kFieldRelTol = 1e-9;
/// Absolute psi bound [V]; the potential crosses zero inside the device
/// so a pure relative comparison would blow up at the sign change.
constexpr double kPsiTolV = 1e-9;
/// Minority-carrier (hole) bound: the psi-watching outer stop leaves
/// the slow hole relaxation ~5e-9 from its fixed point at the stiff
/// high-bias corner no matter how tight the stops go (see file
/// comment).
constexpr double kMinorityRelTol = 2e-8;
/// Terminal-current bound: the conditioning limit of the contact-flux
/// functional (see the file comment), not of the solvers.
constexpr double kCurrentRelTol = 1e-5;
/// Density nodes more than 8 decades below the device maximum carry no
/// measurable current and sit at (or within linear-solve noise of) the
/// solver's positivity floor; comparing them relatively would compare
/// noise against noise.
constexpr double kDensityFloorFrac = 1e-8;

/// Solver stops tightened well below the comparison bounds, so the
/// residual config-to-config spread is convergence slack, not
/// disagreement. 1e-12 outer / 1e-14 inner is the tightest envelope
/// every fixture sustains under both configs; it needs the extra
/// outer-iteration headroom because the (vdd, vdd) corner contracts
/// slowly (distance to the fixed point is ~10x the last psi update
/// there, which is exactly why a 1e-10 stop is NOT enough to compare
/// fields at 1e-9).
st::GummelOptions tight(std::size_t meshcont_levels = 0) {
  st::GummelOptions o;
  o.max_iterations = 400;
  o.psi_tolerance = 1e-12;
  o.poisson.update_tolerance = 1e-14;
  o.mesh_continuation_levels = meshcont_levels;
  return o;
}

/// Currents and converged states of one device under one solver config
/// at the fixture bias points: the hard high-bias corner (vdd, vdd) —
/// the point the cold-solve budget targets — and a subthreshold point.
struct Snapshot {
  std::array<double, 2> id{};
  std::array<std::vector<double>, 2> psi, n, p;
};

Snapshot snapshot_under(const sc::DeviceSpec& spec,
                        const st::GummelOptions& options) {
  st::TcadDevice dev(spec, {}, options);
  const std::array<std::array<double, 2>, 2> points = {
      {{spec.vdd, spec.vdd}, {spec.vdd / 3.0, 0.05}}};
  Snapshot s;
  for (std::size_t k = 0; k < points.size(); ++k) {
    s.id[k] = dev.id_at(points[k][0], points[k][1]);
    s.psi[k] = dev.solver().psi();
    s.n[k] = dev.solver().electron_density();
    s.p[k] = dev.solver().hole_density();
  }
  return s;
}

void expect_field_equivalent(const std::vector<double>& base,
                             const std::vector<double>& other, double floor,
                             double tol, const std::string& label) {
  ASSERT_EQ(base.size(), other.size()) << label;
  double worst = 0.0;
  std::size_t worst_idx = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i] < floor && other[i] < floor) continue;
    const double rel =
        std::abs(other[i] - base[i]) / std::max(base[i], floor);
    if (rel > worst) {
      worst = rel;
      worst_idx = i;
    }
  }
  EXPECT_LE(worst, tol)
      << label << " node " << worst_idx << ": " << base[worst_idx] << " vs "
      << other[worst_idx];
}

void expect_state_equivalent(const Snapshot& base, const Snapshot& other,
                             const std::string& label) {
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string at = label + " point " + std::to_string(k);
    ASSERT_EQ(base.psi[k].size(), other.psi[k].size()) << at;
    double dpsi = 0.0;
    for (std::size_t i = 0; i < base.psi[k].size(); ++i) {
      dpsi = std::max(dpsi, std::abs(other.psi[k][i] - base.psi[k][i]));
    }
    EXPECT_LE(dpsi, kPsiTolV) << at << ": max |dpsi| " << dpsi << " V";

    double nmax = 0.0, pmax = 0.0;
    for (const double v : base.n[k]) nmax = std::max(nmax, v);
    for (const double v : base.p[k]) pmax = std::max(pmax, v);
    expect_field_equivalent(base.n[k], other.n[k], kDensityFloorFrac * nmax,
                            kFieldRelTol, at + " n");
    expect_field_equivalent(base.p[k], other.p[k], kDensityFloorFrac * pmax,
                            kMinorityRelTol, at + " p");
  }
}

void expect_current_equivalent(const Snapshot& base, const Snapshot& other,
                               const std::string& label) {
  for (std::size_t k = 0; k < 2; ++k) {
    const double scale = std::max(std::abs(base.id[k]), 1e-300);
    EXPECT_LE(std::abs(other.id[k] - base.id[k]) / scale, kCurrentRelTol)
        << label << " point " << k << ": gummel " << base.id[k] << " vs "
        << other.id[k];
  }
}

void run_equivalence(const sc::DeviceSpec& spec, const std::string& name) {
  const Snapshot gummel = snapshot_under(spec, tight());
  for (const double id : gummel.id) {
    ASSERT_TRUE(std::isfinite(id)) << name;
  }
  const Snapshot meshcont = snapshot_under(spec, tight(2));
  expect_state_equivalent(gummel, meshcont, name + "/meshcont2");
  expect_current_equivalent(gummel, meshcont, name + "/meshcont2");
}

}  // namespace

// ---- mesh-continuation equivalence on the fixture devices ------------------

TEST(SolverEquivalence, Table2Node90) { run_equivalence(table2_90(), "90nm"); }

TEST(SolverEquivalence, Table2Node65) { run_equivalence(table2_65(), "65nm"); }

TEST(SolverEquivalence, Table3Node95SubVth) {
  run_equivalence(table3_95(), "95nm-subvth");
}

// ---- Slotboom assembly differential ----------------------------------------

// The Slotboom-variable continuity assembly is a second, independently
// derived discretization of the same physics (symmetric in the scaled
// unknowns, exact at equilibrium). On the sub-Vth fixture — the regime
// the variables are scaled for — its converged state must match the
// raw-density assembly at the field bound, which cross-checks both
// assemblies at once. Currents are excluded: the slotboom path draws a
// different linear-solve noise realization, and at high bias its
// exponential weights degrade the system's conditioning, which the
// ill-conditioned contact-flux functional amplifies past kCurrentRelTol
// (that, plus super-Vth ramp stalls, is why the knob defaults off and
// why it is exercised here on the sub-Vth device only).
TEST(SolverEquivalence, SlotboomAssemblyMatchesRawDensityOnFields) {
  const sc::DeviceSpec spec = table3_95();
  const Snapshot raw = snapshot_under(spec, tight());
  st::GummelOptions o = tight();
  o.continuity.slotboom = true;
  const Snapshot slotboom = snapshot_under(spec, o);
  expect_state_equivalent(raw, slotboom, "95nm-subvth/slotboom");
}

// ---- the accelerated path actually runs ------------------------------------

TEST(SolverEquivalence, MeshContinuationActuallyRuns) {
  so::MetricsRegistry reg;
  se::RunContext ctx;
  ctx.metrics = &reg;
  st::TcadDevice dev(table2_90(), {}, tight(2), ctx);
  ASSERT_NE(dev.mesh_continuation(), nullptr);
  EXPECT_EQ(dev.mesh_continuation()->level_count(), 2u);
  // Coarser levels really are coarser, in order.
  const auto counts = dev.mesh_continuation()->level_node_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], dev.structure().mesh().node_count());
  dev.id_at(1.2, 1.2);
  EXPECT_GT(reg.counter(so::names::kMeshContLevels).value(), 0u);
  EXPECT_GT(reg.counter(so::names::kMeshContProlongations).value(), 0u);
}

// ---- determinism across thread counts --------------------------------------

TEST(SolverEquivalence,
     MeshContinuationSweepBitwiseDeterministicAcrossThreads) {
  const auto sweep_at = [&](std::size_t threads) {
    se::RunContext ctx;
    ctx.exec.threads = threads;
    st::TcadDevice dev(table2_90(), {}, tight(2), ctx);
    return dev.id_vg(0.25, 0.0, 0.45, 6);
  };
  const st::SweepResult base = sweep_at(1);
  ASSERT_TRUE(base.all_converged());
  ASSERT_EQ(base.size(), 6u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const st::SweepResult other = sweep_at(threads);
    ASSERT_EQ(other.size(), base.size()) << threads << " threads";
    for (std::size_t i = 0; i < base.size(); ++i) {
      // Bitwise: the solve is serial per device, so the thread policy
      // must not leak into the arithmetic at all.
      EXPECT_EQ(base[i].id, other[i].id) << threads << " threads, point " << i;
      EXPECT_EQ(base[i].vg, other[i].vg);
    }
  }
}

// ---- backend guard ----------------------------------------------------------

TEST(SolverEquivalence, NanowireSpecThrowsWithAndWithoutMeshContinuation) {
  sc::DeviceSpec spec = table2_90();
  sc::DeviceEnv env;
  env.backend = sc::BackendKind::kNanowireGaa;
  spec.apply_env(env);
  for (const std::size_t levels : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_THROW(st::TcadDevice(spec, {}, tight(levels)),
                 std::invalid_argument)
        << levels << " levels";
  }
}
