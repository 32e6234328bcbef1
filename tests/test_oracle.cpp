// Differential oracle tier for the compact evaluation path (DESIGN.md
// §18) and the nodal circuit engine (§19). The per-call formulas the
// models hoisted their bias-invariant terms out of, the bisection VTC
// with its finite-difference gain, and the forward-difference circuit
// engine live here as the reference, the way ReferenceBandedLu anchors
// the blocked LU:
//   * drain_current/vth reproduce the per-call formulas bitwise on dense
//     bias grids over every designed device of the paper deck, the
//     extended and hot-corner decks, and the nanowire deck;
//   * evaluate() returns that same current bitwise, with g_m/g_ds equal
//     to central differences;
//   * the Newton VTC and the implicit-gain noise margins agree with the
//     bisection/finite-difference ones at the stated tolerances, and so
//     do the SRAM storage-node curves and their butterfly SNMs;
//   * FO1 delay, V_min, chain energy, chain delay and ring period from
//     the stamped-Jacobian engine agree with the forward-difference one
//     to 1e-9, and the stamps equal central differences of the residual.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cards/technology_card.h"
#include "circuits/chain.h"
#include "circuits/delay.h"
#include "circuits/inverter.h"
#include "circuits/nodal.h"
#include "circuits/ring_oscillator.h"
#include "circuits/sram6t.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "compact/device_model.h"
#include "compact/mosfet.h"
#include "compact/nanowire.h"
#include "compact/vth_model.h"
#include "core/scaling_study.h"
#include "linalg/dense.h"
#include "linalg/newton.h"
#include "opt/bisection.h"
#include "opt/golden_section.h"
#include "physics/constants.h"
#include "physics/mobility.h"
#include "physics/silicon.h"

namespace sc = subscale::compact;
namespace cc = subscale::circuits;
namespace sp = subscale::physics;
namespace cards = subscale::cards;
namespace core = subscale::core;

namespace reference {

sp::Carrier carrier_of(const sc::DeviceSpec& spec) {
  return spec.polarity == subscale::doping::Polarity::kNfet
             ? sp::Carrier::kElectron
             : sp::Carrier::kHole;
}

/// Bulk threshold at vds, re-deriving the whole decomposition per call.
double bulk_vth(const sc::DeviceModel& m, double vds) {
  const sc::DeviceSpec& spec = m.spec();
  const sc::Calibration& calib = m.calibration();
  const sc::VthComponents c = sc::threshold_components(spec, calib, vds);
  const double neff = spec.effective_channel_doping(calib.k_halo);
  const double two_phi_b =
      sp::surface_potential_at_threshold(neff, spec.temperature);
  const double dvth_sce = calib.k_dibl * (2.0 * (c.vbi - two_phi_b) + vds) *
                          std::exp(-spec.geometry.leff() / (2.0 * c.lt));
  return c.vth_body - dvth_sce + calib.delta_vth;
}

double bulk_mu_eff(const sc::DeviceModel& m, double vgs) {
  const sc::DeviceSpec& spec = m.spec();
  const double neff = spec.effective_channel_doping(m.calibration().k_halo);
  const double n = m.slope_factor();
  const double vt = sp::thermal_voltage(spec.temperature);
  const double cox = sp::oxide_capacitance(spec.geometry.tox);
  const double q_dep = sp::depletion_charge(neff, spec.temperature);
  const double vov_smooth =
      2.0 * n * vt * sc::softplus((vgs - bulk_vth(m, 0.0)) / (2.0 * n * vt));
  const double q_inv = cox * vov_smooth;
  const double e_eff = (q_dep + 0.5 * q_inv) / sp::kEpsSi;
  return sp::masetti_mobility(carrier_of(spec), neff) *
         sp::surface_degradation(carrier_of(spec), e_eff);
}

double bulk_specific_current(const sc::DeviceModel& m, double vgs) {
  const sc::DeviceSpec& spec = m.spec();
  const double vt = sp::thermal_voltage(spec.temperature);
  const double cox = sp::oxide_capacitance(spec.geometry.tox);
  const double w_over_l = spec.width / spec.geometry.leff();
  return m.calibration().k_io * 2.0 * m.slope_factor() * bulk_mu_eff(m, vgs) *
         cox * vt * vt * w_over_l;
}

double bulk_drain_current(const sc::DeviceModel& m, double vgs, double vds) {
  const sc::DeviceSpec& spec = m.spec();
  const double sign = (vds < 0.0) ? -1.0 : 1.0;
  const double vds_mag = std::abs(vds);
  const double n = m.slope_factor();
  const double vt = sp::thermal_voltage(spec.temperature);

  const double vth_d = bulk_vth(m, vds_mag);
  const double two_nvt = 2.0 * n * vt;
  const double xf = (vgs - vth_d) / two_nvt;
  const double xr = (vgs - vth_d - n * vds_mag) / two_nvt;
  const double qf = sc::softplus(xf);
  const double qr = sc::softplus(xr);
  const double i_norm = qf * qf - qr * qr;

  const double vsat =
      sp::saturation_velocity(carrier_of(spec), spec.temperature);
  const double vov_smooth = two_nvt * qf;
  const double mu = bulk_mu_eff(m, vgs);
  const double denom = 1.0 + m.calibration().k_vsat * mu * vov_smooth /
                                 (2.0 * vsat * spec.geometry.leff());
  return sign * bulk_specific_current(m, vgs) * i_norm / denom;
}

/// Nanowire threshold at vds, with the SCE exponential per call.
double nanowire_vth(const sc::NanowireFet& m, double vds) {
  const sc::DeviceSpec& spec = m.spec();
  const sc::Calibration& calib = m.calibration();
  const double vbi = sp::builtin_potential(m.neff(), spec.levels.nsd,
                                           spec.temperature);
  const double sce = std::exp(-spec.geometry.leff() /
                              (2.0 * calib.c_len * m.natural_length()));
  const double dvth_sce = calib.k_dibl * (2.0 * vbi + vds) * sce;
  return m.vth_long() - dvth_sce;
}

double nanowire_drain_current(const sc::NanowireFet& m, double vgs,
                              double vds) {
  const sc::DeviceSpec& spec = m.spec();
  const sc::Calibration& calib = m.calibration();
  const double sign = (vds < 0.0) ? -1.0 : 1.0;
  const double vds_mag = std::abs(vds);
  const double leff = spec.geometry.leff();
  const double n = m.slope_factor();
  const double vt = sp::thermal_voltage(spec.temperature);
  const double mu = sp::masetti_mobility(carrier_of(spec), m.neff());

  const double vth_d = nanowire_vth(m, vds_mag);
  const double two_nvt = 2.0 * n * vt;
  const double xf = (vgs - vth_d) / two_nvt;
  const double xr = (vgs - vth_d - n * vds_mag) / two_nvt;
  const double qf = sc::softplus(xf);
  const double qr = sc::softplus(xr);
  const double i_norm = qf * qf - qr * qr;

  const double i0 = calib.k_io * 2.0 * n * mu * m.cox() * vt * vt *
                    m.electrical_width() / leff;
  const double vsat =
      sp::saturation_velocity(carrier_of(spec), spec.temperature);
  const double vov_smooth = two_nvt * qf;
  const double denom =
      1.0 + calib.k_vsat * mu * vov_smooth / (2.0 * vsat * leff);
  return sign * i0 * i_norm / denom;
}

double drain_current(const sc::DeviceModel& m, double vgs, double vds) {
  if (const auto* nw = dynamic_cast<const sc::NanowireFet*>(&m)) {
    return nanowire_drain_current(*nw, vgs, vds);
  }
  return bulk_drain_current(m, vgs, vds);
}

double vth(const sc::DeviceModel& m, double vds) {
  if (const auto* nw = dynamic_cast<const sc::NanowireFet*>(&m)) {
    return nanowire_vth(*nw, vds);
  }
  return bulk_vth(m, vds);
}

/// Output voltage by bisection on the output-node balance.
double vtc_output(const cc::InverterDevices& inv, double vin) {
  const double vdd = inv.vdd;
  const auto balance = [&](double vout) {
    const double i_n = inv.nfet->drain_current(vin, vout);
    const double i_p = inv.pfet->drain_current(vdd - vin, vdd - vout);
    return i_n - i_p;
  };
  return subscale::opt::bisect(balance, 0.0, vdd, 1e-13 * vdd, 400).x;
}

/// Gain as a central difference of two bisection solves.
double vtc_gain(const cc::InverterDevices& inv, double vin) {
  const double h = 1e-5 * inv.vdd;
  const double lo = std::max(0.0, vin - h);
  const double hi = std::min(inv.vdd, vin + h);
  return (reference::vtc_output(inv, hi) - reference::vtc_output(inv, lo)) /
         (hi - lo);
}

/// Unity-gain noise margins over the finite-difference gain.
cc::NoiseMargins noise_margins(const cc::InverterDevices& inv) {
  const double vdd = inv.vdd;
  const std::size_t scan = 160;
  double best_gain = 0.0;
  double v_switch = 0.5 * vdd;
  for (std::size_t i = 1; i + 1 < scan; ++i) {
    const double v = vdd * static_cast<double>(i) / static_cast<double>(scan);
    const double g = reference::vtc_gain(inv, v);
    if (g < best_gain) {
      best_gain = g;
      v_switch = v;
    }
  }
  const auto gain_plus_one = [&](double v) {
    return reference::vtc_gain(inv, v) + 1.0;
  };
  const auto lo_root = subscale::opt::bisect(gain_plus_one, 1e-6 * vdd,
                                             v_switch, 1e-9 * vdd, 200);
  const auto hi_root = subscale::opt::bisect(
      gain_plus_one, v_switch, vdd * (1 - 1e-6), 1e-9 * vdd, 200);
  cc::NoiseMargins nm;
  nm.vil = lo_root.x;
  nm.vih = hi_root.x;
  nm.voh = reference::vtc_output(inv, nm.vil);
  nm.vol = reference::vtc_output(inv, nm.vih);
  nm.nml = nm.vil - nm.vol;
  nm.nmh = nm.voh - nm.vih;
  nm.snm = std::min(nm.nml, nm.nmh);
  nm.peak_gain = best_gain;
  return nm;
}

/// SRAM storage-node transfer curve by bisection on the node balance,
/// with or without the access NFET (wordline and bitline at V_dd).
cc::VtcCurve sram_vtc(const cc::Sram6tCell& cell, bool with_access) {
  const double vdd = cell.vdd;
  const std::size_t points = 301;
  cc::VtcCurve curve;
  for (std::size_t i = 0; i < points; ++i) {
    const double v_other =
        vdd * static_cast<double>(i) / static_cast<double>(points - 1);
    const auto balance = [&](double vq) {
      double f = cell.pull_down->drain_current(v_other, vq) -
                 cell.pull_up->drain_current(vdd - v_other, vdd - vq);
      if (with_access) f -= cell.access->drain_current(vdd - vq, vdd - vq);
      return f;
    };
    curve.vin.push_back(v_other);
    curve.vout.push_back(
        subscale::opt::bisect(balance, 0.0, vdd, 1e-12 * vdd, 400).x);
  }
  return curve;
}

}  // namespace reference

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct DeckDevices {
  std::string card;
  std::vector<std::shared_ptr<const sc::DeviceModel>> models;
};

/// Every designed device (both strategies, NFET and balanced PFET) of
/// one deck, built once per test binary.
DeckDevices deck_devices(const cards::TechnologyCard& card) {
  core::StudyOptions options;
  options.card = card;
  options.run.no_cache = true;
  const core::ScalingStudy study(sc::paper_calibration(), options);
  DeckDevices out{card.id, {}};
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    for (const auto& inv : {study.super_inverter(i, study.node(i).vdd),
                            study.sub_inverter(i, study.node(i).vdd)}) {
      out.models.push_back(inv.nfet);
      out.models.push_back(inv.pfet);
    }
  }
  return out;
}

const std::vector<DeckDevices>& all_decks() {
  static const std::vector<DeckDevices> decks = {
      deck_devices(cards::paper_bulk_lstp()),
      deck_devices(cards::bulk_lstp_extended()),
      deck_devices(cards::paper_bulk_hot350()),
      deck_devices(cards::nanowire_gaa()),
  };
  return decks;
}

/// The dense bias grid: gate -0.3..1.5 V, drain -0.6..1.4 V (reverse
/// bias included), 50 mV steps offset off the round values.
template <typename F>
void for_each_bias(F&& f) {
  for (int a = 0; a <= 36; ++a) {
    for (int b = 0; b <= 40; ++b) {
      f(-0.3 + 0.05 * a + 1.3e-3, -0.6 + 0.05 * b + 0.7e-3);
    }
  }
  f(0.4, 0.0);  // exactly zero drain bias
}

}  // namespace

TEST(CompactOracle, DrainCurrentBitwiseEqualsPerCallReference) {
  std::size_t nanowires = 0;
  for (const DeckDevices& deck : all_decks()) {
    EXPECT_GE(deck.models.size(), 16u) << deck.card;
    for (const auto& m : deck.models) {
      if (m->backend() == sc::BackendKind::kNanowireGaa) ++nanowires;
      std::size_t mismatches = 0;
      for_each_bias([&](double vgs, double vds) {
        const double got = m->drain_current(vgs, vds);
        const double want = reference::drain_current(*m, vgs, vds);
        if (!same_bits(got, want) && mismatches++ < 3) {
          ADD_FAILURE() << deck.card << " " << m->backend_name() << " vgs="
                        << vgs << " vds=" << vds << ": " << got << " vs "
                        << want;
        }
      });
      EXPECT_EQ(mismatches, 0u) << deck.card;
    }
  }
  EXPECT_GT(nanowires, 0u);  // both backends are covered
}

TEST(CompactOracle, VthBitwiseEqualsPerCallReference) {
  for (const DeckDevices& deck : all_decks()) {
    for (const auto& m : deck.models) {
      for (int b = 0; b <= 40; ++b) {
        const double vds = -0.6 + 0.05 * b;
        EXPECT_TRUE(same_bits(m->vth(vds), reference::vth(*m, vds)))
            << deck.card << " vds=" << vds;
      }
      if (m->backend() == sc::BackendKind::kBulkMosfet) {
        EXPECT_TRUE(same_bits(
            m->vth(0.3),
            sc::threshold_voltage(m->spec(), m->calibration(), 0.3)));
      }
    }
  }
}

TEST(CompactOracle, EvaluateCurrentIsDrainCurrentBitwise) {
  for (const DeckDevices& deck : all_decks()) {
    for (const auto& m : deck.models) {
      std::size_t mismatches = 0;
      for_each_bias([&](double vgs, double vds) {
        if (!same_bits(m->evaluate(vgs, vds).id, m->drain_current(vgs, vds))) {
          ++mismatches;
        }
      });
      EXPECT_EQ(mismatches, 0u) << deck.card << " " << m->backend_name();
    }
  }
}

TEST(CompactOracle, ConductancesMatchCentralDifferences) {
  // Sixth-order central differences at h = 1e-4 V: truncation
  // O((h/vT)^6) and rounding O(eps |id| / h) both sit orders below the
  // bound. A plain h = 1e-6 V central difference is too noisy to serve
  // as the reference on saturated nanowires, where g_ds << 1e-3 I_d/V:
  // rounding V_th to one ulp already moves its quotient by ~4e-6. The
  // grid stays 0.7 mV off V_ds = 0, where id is odd and no central
  // difference straddling it is smooth (see the next test).
  constexpr double kH = 1e-4;
  const auto derivative = [](const auto& f) {
    return (-f(-3) + 9.0 * f(-2) - 45.0 * f(-1) + 45.0 * f(1) -
            9.0 * f(2) + f(3)) /
           (60.0 * kH);
  };
  for (const DeckDevices& deck : all_decks()) {
    for (const auto& m : deck.models) {
      for_each_bias([&](double vgs, double vds) {
        if (vds == 0.0) return;
        const sc::DeviceEval e = m->evaluate(vgs, vds);
        const double gm_fd = derivative(
            [&](int k) { return m->drain_current(vgs + k * kH, vds); });
        const double gds_fd = derivative(
            [&](int k) { return m->drain_current(vgs, vds + k * kH); });
        const double floor = 1e-3 * std::abs(e.id);
        EXPECT_LE(std::abs(e.gm - gm_fd), 1e-6 * (std::abs(gm_fd) + floor))
            << deck.card << " " << m->backend_name() << " vgs=" << vgs
            << " vds=" << vds;
        EXPECT_LE(std::abs(e.gds - gds_fd),
                  1e-6 * (std::abs(gds_fd) + floor))
            << deck.card << " " << m->backend_name() << " vgs=" << vgs
            << " vds=" << vds;
      });
    }
  }
}

TEST(CompactOracle, ConductancesAtZeroDrainBiasAreOneSidedLimits) {
  // At V_ds = 0 the current vanishes for every V_gs (g_m = 0) and g_ds is
  // the common one-sided slope; a second-order one-sided difference
  // (-3 f(0) + 4 f(h) - f(2h)) / 2h checks it from either side.
  constexpr double kH = 1e-6;
  for (const DeckDevices& deck : all_decks()) {
    for (const auto& m : deck.models) {
      for (int a = 0; a <= 12; ++a) {
        const double vgs = 0.1 * a;
        const sc::DeviceEval e = m->evaluate(vgs, 0.0);
        EXPECT_EQ(e.id, 0.0);
        EXPECT_EQ(e.gm, 0.0);
        const double fwd = (4.0 * m->drain_current(vgs, kH) -
                            m->drain_current(vgs, 2.0 * kH)) /
                           (2.0 * kH);
        const double bwd = (4.0 * m->drain_current(vgs, -kH) -
                            m->drain_current(vgs, -2.0 * kH)) /
                           (-2.0 * kH);
        EXPECT_NEAR(e.gds, fwd, 1e-6 * std::abs(fwd)) << deck.card;
        EXPECT_NEAR(e.gds, bwd, 1e-6 * std::abs(bwd)) << deck.card;
      }
    }
  }
}

namespace {

/// The paper's 12 figure inverters (super@V_dd,nom, super@0.25 V and
/// sub@0.25 V on each node) plus one nanowire inverter.
std::vector<cc::InverterDevices> figure_inverters() {
  const core::ScalingStudy paper;
  std::vector<cc::InverterDevices> out;
  for (std::size_t i = 0; i < paper.node_count(); ++i) {
    out.push_back(paper.super_inverter(i, paper.node(i).vdd));
    out.push_back(paper.super_inverter(i, 0.25));
    out.push_back(paper.sub_inverter(i, 0.25));
  }
  core::StudyOptions nanowire;
  nanowire.card = cards::nanowire_gaa();
  nanowire.run.no_cache = true;
  out.push_back(core::ScalingStudy(sc::paper_calibration(), nanowire)
                    .sub_inverter(0, 0.25));
  return out;
}

}  // namespace

TEST(VtcOracle, NewtonOutputMatchesBisection) {
  for (const cc::InverterDevices& inv : figure_inverters()) {
    for (int k = 0; k <= 100; ++k) {
      const double vin = inv.vdd * k / 100.0;
      EXPECT_NEAR(cc::vtc_output(inv, vin), reference::vtc_output(inv, vin),
                  1e-12 * inv.vdd)
          << "vdd=" << inv.vdd << " vin=" << vin;
    }
  }
}

TEST(VtcOracle, ImplicitGainMatchesFiniteDifference) {
  for (const cc::InverterDevices& inv : figure_inverters()) {
    for (int k = 1; k < 40; ++k) {
      const double vin = inv.vdd * k / 40.0;
      // The oracle's central difference (h = 1e-5 V_dd) truncates at
      // O(h^2 gain''), 2.2e-5 relative at the nanowire's -118 peak.
      const double fd = reference::vtc_gain(inv, vin);
      EXPECT_NEAR(cc::vtc_gain(inv, vin), fd, 1e-4 * (std::abs(fd) + 1.0))
          << "vdd=" << inv.vdd << " vin=" << vin;
    }
  }
}

TEST(VtcOracle, NoiseMarginsMatchFiniteDifferenceOracle) {
  // The oracle's own error sets the bound: its central difference
  // (h = 1e-5 V_dd) and its 1e-9 V_dd unity-gain bisection.
  for (const cc::InverterDevices& inv : figure_inverters()) {
    const cc::NoiseMargins got = cc::noise_margins(inv);
    const cc::NoiseMargins want = reference::noise_margins(inv);
    const double tol = 5e-9 * inv.vdd;
    EXPECT_NEAR(got.vil, want.vil, tol) << "vdd=" << inv.vdd;
    EXPECT_NEAR(got.vih, want.vih, tol) << "vdd=" << inv.vdd;
    EXPECT_NEAR(got.snm, want.snm, tol) << "vdd=" << inv.vdd;
    EXPECT_NEAR(got.peak_gain, want.peak_gain,
                1e-4 * std::abs(want.peak_gain));
  }
}

namespace {

/// 6T cells on every node's super- and sub-V_th NFET at 0.25 V, the
/// super-V_th one also at its nominal V_dd, plus a nanowire cell.
std::vector<cc::Sram6tCell> figure_cells() {
  const auto at = [](cc::Sram6tCell cell, double vdd) {
    cell.vdd = vdd;
    return cell;
  };
  const core::ScalingStudy paper;
  std::vector<cc::Sram6tCell> out;
  for (std::size_t i = 0; i < paper.node_count(); ++i) {
    const cc::Sram6tCell super =
        cc::make_sram_cell(paper.super_devices()[i].spec);
    out.push_back(super);
    out.push_back(at(super, 0.25));
    out.push_back(
        at(cc::make_sram_cell(paper.sub_devices()[i].device.spec), 0.25));
  }
  core::StudyOptions nanowire;
  nanowire.card = cards::nanowire_gaa();
  nanowire.run.no_cache = true;
  const core::ScalingStudy wires(sc::paper_calibration(), nanowire);
  out.push_back(
      at(cc::make_sram_cell(wires.sub_devices()[0].device.spec), 0.25));
  return out;
}

}  // namespace

TEST(VtcOracle, SramNodeCurvesAndSnmsMatchBisection) {
  // Newton and the oracle both stop within 1e-12 V_dd of the root, and
  // the butterfly's largest square moves by at most the largest shift
  // of either curve, so 1e-11 V_dd bounds nodes and SNMs alike. A slope
  // that overstates the node's conductance tenfold stops Newton early,
  // and one near half the true value stalls it at its step cap; either
  // breaks the bound.
  for (const cc::Sram6tCell& cell : figure_cells()) {
    const double tol = 1e-11 * cell.vdd;
    const cc::VtcCurve hold = cc::sram_hold_vtc(cell);
    const cc::VtcCurve read = cc::sram_read_vtc(cell);
    const cc::VtcCurve want_hold = reference::sram_vtc(cell, false);
    const cc::VtcCurve want_read = reference::sram_vtc(cell, true);
    ASSERT_EQ(hold.vout.size(), want_hold.vout.size());
    ASSERT_EQ(read.vout.size(), want_read.vout.size());
    for (std::size_t i = 0; i < hold.vout.size(); ++i) {
      EXPECT_NEAR(hold.vout[i], want_hold.vout[i], tol)
          << "hold vdd=" << cell.vdd << " vin=" << hold.vin[i];
      EXPECT_NEAR(read.vout[i], want_read.vout[i], tol)
          << "read vdd=" << cell.vdd << " vin=" << read.vin[i];
    }
    EXPECT_NEAR(cc::sram_hold_snm(cell),
                cc::butterfly_snm(want_hold, want_hold), tol)
        << "vdd=" << cell.vdd;
    EXPECT_NEAR(cc::sram_read_snm(cell),
                cc::butterfly_snm(want_read, want_read), tol)
        << "vdd=" << cell.vdd;
  }
}

// ---- the nodal circuit engine (DESIGN.md §19) ------------------------------

namespace sl = subscale::linalg;

namespace reference {

/// The parent circuit engine: a std::function Newton whose Jacobian is a
/// forward difference of a residual that sums each free node on its own.
using ResidualFn =
    std::function<std::vector<double>(const std::vector<double>&)>;
using JacobianFn = std::function<sl::DenseMatrix(const std::vector<double>&)>;

struct NewtonResult {
  std::vector<double> x;
  bool converged = false;
};

NewtonResult newton_solve(const ResidualFn& residual,
                          const JacobianFn& jacobian, std::vector<double> x,
                          const sl::NewtonOptions& options) {
  NewtonResult result;
  result.x = std::move(x);
  std::vector<double> f = residual(result.x);
  double f_norm = sl::norm_inf(f);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    if (f_norm <= options.residual_tolerance) {
      result.converged = true;
      return result;
    }
    std::vector<double> rhs(f.size());
    for (std::size_t i = 0; i < f.size(); ++i) rhs[i] = -f[i];
    std::vector<double> dx;
    try {
      dx = sl::LuFactorization(jacobian(result.x)).solve(rhs);
    } catch (const std::runtime_error&) {
      return result;
    }
    for (double& d : dx) {
      d = std::clamp(d, -options.max_step, options.max_step);
    }
    if (sl::norm_inf(dx) <= options.step_tolerance) {
      result.converged = f_norm <= 1e3 * options.residual_tolerance;
      return result;
    }
    double lambda = 1.0;
    bool accepted = false;
    std::vector<double> x_trial(result.x.size());
    for (std::size_t ls = 0; ls <= options.max_line_search_halvings; ++ls) {
      for (std::size_t i = 0; i < result.x.size(); ++i) {
        x_trial[i] = result.x[i] + lambda * dx[i];
      }
      std::vector<double> f_trial = residual(x_trial);
      const double f_trial_norm = sl::norm_inf(f_trial);
      if (std::isfinite(f_trial_norm) && f_trial_norm < f_norm) {
        result.x = x_trial;
        f = std::move(f_trial);
        f_norm = f_trial_norm;
        accepted = true;
        break;
      }
      lambda *= 0.5;
    }
    if (!accepted) {
      for (std::size_t i = 0; i < result.x.size(); ++i) {
        result.x[i] += lambda * dx[i];
      }
      f = residual(result.x);
      const double fn = sl::norm_inf(f);
      if (!std::isfinite(fn) || fn > 10.0 * f_norm) return result;
      f_norm = fn;
    }
  }
  result.converged = f_norm <= options.residual_tolerance;
  return result;
}

sl::DenseMatrix finite_difference_jacobian(const ResidualFn& residual,
                                           const std::vector<double>& x) {
  const std::size_t n = x.size();
  const std::vector<double> f0 = residual(x);
  sl::DenseMatrix jac(n, n);
  std::vector<double> xp = x;
  for (std::size_t j = 0; j < n; ++j) {
    const double h = 1e-7 * std::max(1.0, std::abs(x[j]));
    xp[j] = x[j] + h;
    const std::vector<double> fj = residual(xp);
    xp[j] = x[j];
    for (std::size_t i = 0; i < n; ++i) jac(i, j) = (fj[i] - f0[i]) / h;
  }
  return jac;
}

/// Current out of one node: its MOSFETs in insertion order, drain before
/// source, then gmin. The parent evaluated every MOSFET for every node;
/// one attached to neither terminal added nothing, so it is skipped.
double node_current(const cc::Circuit& c, cc::NodeId node,
                    const std::vector<double>& v) {
  double out = 0.0;
  for (const cc::MosfetInstance& m : c.mosfets()) {
    if (m.drain != node && m.source != node) continue;
    const bool is_n =
        m.model->spec().polarity == subscale::doping::Polarity::kNfet;
    const double id =
        is_n ? m.model->drain_current(v[m.gate] - v[m.source],
                                      v[m.drain] - v[m.source])
             : m.model->drain_current(v[m.source] - v[m.gate],
                                      v[m.source] - v[m.drain]);
    if (m.drain == node) out += is_n ? id : -id;
    if (m.source == node) out += is_n ? -id : id;
  }
  return out + c.gmin() * v[node];
}

/// The Newton solve of a DC operating point (v_old empty) or of one
/// backward-Euler step of length dt from v_old. Returns the full voltages.
std::vector<double> solve(const cc::Circuit& c, const std::vector<double>& v0,
                          const std::vector<double>& v_old, double dt) {
  const std::vector<cc::NodeId> free = c.free_nodes();
  std::vector<double> v_fixed(c.node_count(), 0.0);
  for (cc::NodeId id = 0; id < c.node_count(); ++id) {
    if (c.is_fixed(id)) v_fixed[id] = c.fixed_voltage(id);
  }
  const auto assemble = [&](const std::vector<double>& x) {
    std::vector<double> v = v_fixed;
    for (std::size_t k = 0; k < free.size(); ++k) v[free[k]] = x[k];
    return v;
  };
  const ResidualFn residual = [&](const std::vector<double>& x) {
    const std::vector<double> v = assemble(x);
    std::vector<double> f(free.size());
    for (std::size_t k = 0; k < free.size(); ++k) {
      f[k] = node_current(c, free[k], v);
    }
    if (v_old.empty()) return f;
    for (const cc::CapacitorInstance& cap : c.capacitors()) {
      const double dv_new = v[cap.a] - v[cap.b];
      const double dv_old = v_old[cap.a] - v_old[cap.b];
      const double i_cap = cap.capacitance * (dv_new - dv_old) / dt;
      for (std::size_t k = 0; k < free.size(); ++k) {
        if (free[k] == cap.a) f[k] += i_cap;
        if (free[k] == cap.b) f[k] -= i_cap;
      }
    }
    return f;
  };
  std::vector<double> x0(free.size());
  for (std::size_t k = 0; k < free.size(); ++k) x0[k] = v0[free[k]];
  const NewtonResult newton = newton_solve(
      residual,
      [&](const std::vector<double>& x) {
        return finite_difference_jacobian(residual, x);
      },
      x0,
      {.max_iterations = v_old.empty() ? 300u : 200u,
       .residual_tolerance = 1e-15,
       .step_tolerance = v_old.empty() ? 1e-15 : 1e-16,
       .max_step = 0.3});
  if (!newton.converged) throw std::runtime_error("reference: no convergence");
  return assemble(newton.x);
}

/// Times at which `probe` crosses v_half in the given direction while the
/// circuit steps from `v0` at fixed dt, linearly interpolated, until
/// `count` crossings are found.
std::vector<double> crossings(const cc::Circuit& c, std::vector<double> v,
                              double dt, cc::NodeId probe, double v_half,
                              bool falling, std::size_t count,
                              std::size_t max_steps) {
  std::vector<double> out;
  double time = 0.0;
  double v_prev = v[probe];
  double t_prev = 0.0;
  for (std::size_t step = 0; step < max_steps && out.size() < count; ++step) {
    v = solve(c, v, v, dt);
    time += dt;
    const double v_now = v[probe];
    const bool crossed = falling ? (v_prev > v_half && v_now <= v_half)
                                 : (v_prev < v_half && v_now >= v_half);
    if (crossed) {
      out.push_back(t_prev + (v_half - v_prev) / (v_now - v_prev) * dt);
    }
    v_prev = v_now;
    t_prev = time;
  }
  if (out.size() < count) throw std::runtime_error("reference: no crossing");
  return out;
}

/// An inverter chain (stages >= 1, input node 2 driving stage 0) or an odd
/// ring (input = last stage): rail = node 1; stage s drives node
/// 2 + s (chain: 3 + s) through a C_stage load.
cc::Circuit inverter_line(const cc::InverterDevices& inv, std::size_t stages,
                          bool ring, double input_voltage) {
  cc::Circuit c;
  const cc::NodeId rail = c.add_fixed_node("vdd", inv.vdd);
  const cc::NodeId first = ring ? 2 : 3;
  if (!ring) c.add_fixed_node("in", input_voltage);
  for (std::size_t s = 0; s < stages; ++s) c.add_node("n" + std::to_string(s));
  const double c_load = inv.stage_capacitance();
  for (std::size_t s = 0; s < stages; ++s) {
    const cc::NodeId in = s > 0 ? first + s - 1 : ring ? first + stages - 1 : 2;
    c.add_mosfet(inv.nfet, first + s, in, c.ground());
    c.add_mosfet(inv.pfet, first + s, in, rail);
    c.add_capacitor(first + s, c.ground(), c_load);
  }
  return c;
}

double tau(const cc::InverterDevices& inv, bool nfet_drive) {
  const double i_drive =
      (nfet_drive ? inv.nfet : inv.pfet)->drain_current(inv.vdd, 0.5 * inv.vdd);
  return inv.stage_capacitance() * inv.vdd / i_drive;
}

/// The parent fo1_delay at `steps_per_tau` (default options otherwise).
double fo1_delay(const cc::InverterDevices& inv, std::size_t steps_per_tau) {
  double sum = 0.0;
  for (const bool rising_input : {true, false}) {
    cc::Circuit c = inverter_line(inv, 1, false, rising_input ? 0.0 : inv.vdd);
    const std::vector<double> dc =
        solve(c, std::vector<double>(c.node_count(), 0.0), {}, 0.0);
    c.set_fixed_voltage(2, rising_input ? inv.vdd : 0.0);
    const double dt =
        tau(inv, rising_input) / static_cast<double>(steps_per_tau);
    sum += crossings(c, dc, dt, 3, 0.5 * inv.vdd, rising_input, 1, 200000)[0];
  }
  return 0.5 * sum;
}

/// The parent chain_energy(...).e_total, 30 stages, activity 0.1.
double chain_energy(const cc::InverterDevices& devices, double vdd) {
  const cc::InverterDevices inv = devices.at_vdd(vdd);
  double i_leak = 0.0;
  for (std::size_t s = 0; s < 30; ++s) {
    i_leak += cc::inverter_leakage(inv, s % 2 == 0);
  }
  return 0.1 * 30.0 * inv.stage_capacitance() * vdd * vdd +
         i_leak * vdd * (30.0 * fo1_delay(inv, 60));
}

/// The parent simulate_chain_delay(inv, inv.vdd, stages).
double chain_delay(const cc::InverterDevices& inv, std::size_t stages) {
  cc::Circuit c = inverter_line(inv, stages, false, 0.0);
  std::vector<double> guess(c.node_count(), 0.0);
  guess[1] = inv.vdd;
  for (std::size_t s = 0; s < stages; ++s) {
    guess[3 + s] = s % 2 == 0 ? inv.vdd : 0.0;
  }
  const std::vector<double> dc = solve(c, guess, {}, 0.0);
  c.set_fixed_voltage(2, inv.vdd);
  return crossings(c, dc, tau(inv, true) / 12.0, 2 + stages, 0.5 * inv.vdd,
                   stages % 2 == 1, 1, 400 * stages)[0];
}

/// The parent simulate_ring(inv).period (5 stages, 2 settle + 3 measured).
double ring_period(const cc::InverterDevices& inv) {
  const cc::Circuit c = inverter_line(inv, 5, true, 0.0);
  std::vector<double> v0(c.node_count(), 0.0);
  v0[1] = inv.vdd;
  for (std::size_t s = 0; s < 5; ++s) v0[2 + s] = s % 2 == 0 ? inv.vdd : 0.0;
  const std::vector<double> t = crossings(c, v0, tau(inv, true) / 30.0, 2,
                                          0.5 * inv.vdd, false, 6, 12000);
  return (t[5] - t[2]) / 3.0;
}

}  // namespace reference

namespace {

double relative_error(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

/// Stamps the paper circuits never reach: an inverter (in -> a) drives a
/// two-high stack whose inner nodes are free, so MOSFET sources sit on
/// free rows, and a coupling capacitor joins two free nodes. Free nodes
/// are created in the order a, nmid, pmid, out.
cc::Circuit stack_circuit(const cc::InverterDevices& inv) {
  cc::Circuit c;
  const cc::NodeId rail = c.add_fixed_node("vdd", inv.vdd);
  const cc::NodeId in = c.add_fixed_node("in", 0.3 * inv.vdd);
  const cc::NodeId a = c.add_node("a");
  const cc::NodeId nmid = c.add_node("nmid");
  const cc::NodeId pmid = c.add_node("pmid");
  const cc::NodeId out = c.add_node("out");
  c.add_mosfet(inv.nfet, a, in, c.ground());
  c.add_mosfet(inv.pfet, a, in, rail);
  c.add_mosfet(inv.pfet, pmid, a, rail);
  c.add_mosfet(inv.pfet, out, a, pmid);
  c.add_mosfet(inv.nfet, out, a, nmid);
  c.add_mosfet(inv.nfet, nmid, a, c.ground());
  const double c_load = inv.stage_capacitance();
  c.add_capacitor(a, out, 0.3 * c_load);
  c.add_capacitor(out, c.ground(), c_load);
  c.add_capacitor(c.ground(), nmid, 0.1 * c_load);
  c.add_capacitor(pmid, rail, 0.1 * c_load);
  return c;
}

class EngineOracle : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<cc::InverterDevices>& inverters() {
    static const std::vector<cc::InverterDevices> all = figure_inverters();
    return all;
  }
  const cc::InverterDevices& inv() const { return inverters()[GetParam()]; }
};

}  // namespace

// Lever B (the stamped analytic Jacobian) against the parent's forward-
// difference engine. Both stop Newton at a 1e-15 A residual, so the
// results differ by the FD Jacobian's effect on the last iterates; the
// measured worst cases are in DESIGN.md §19.3.
TEST_P(EngineOracle, Fo1DelayAndVminMatchTheParentEngine) {
  EXPECT_LE(relative_error(cc::fo1_delay(inv()).tp,
                           reference::fo1_delay(inv(), 60)),
            1e-9);
  const cc::VminResult got = cc::find_vmin(inv().at_vdd(0.3));
  const auto energy = [&](double vdd) {
    return reference::chain_energy(inv(), vdd);
  };
  const double want_vmin =
      subscale::opt::scan_then_golden(energy, 0.10, 0.70, 13, 1e-3).x;
  EXPECT_NEAR(got.vmin, want_vmin, 1e-9);
  EXPECT_LE(relative_error(got.at_vmin.e_total, energy(want_vmin)), 1e-9);
}

TEST_P(EngineOracle, ChainDelayAndRingPeriodMatchTheParentEngine) {
  EXPECT_LE(relative_error(cc::simulate_chain_delay(inv(), inv().vdd, 30),
                           reference::chain_delay(inv(), 30)),
            1e-9);
  EXPECT_LE(relative_error(cc::simulate_ring(inv()).period,
                           reference::ring_period(inv())),
            1e-9);
}

TEST_P(EngineOracle, StampedJacobianMatchesCentralDifferences) {
  // FO1 stage, 30-stage chain, 5-stage ring and the stack above, at
  // spread-out node voltages inside (0.1, 0.9) V_dd, where every V_ds
  // stays off the V_ds = 0 kink (in the stack, pmid > out > nmid).
  // h = 1e-6 V: truncation ~(h/vT)^2/6 and rounding ~eps |f| / h both sit
  // orders below the bound. DC mode checks the device stamps alone; a
  // step adds the C/dt companions.
  const double vdd = inv().vdd;
  const double dt = reference::tau(inv(), true) / 60.0;
  for (const cc::Circuit& c :
       {reference::inverter_line(inv(), 1, false, 0.3 * vdd),
        reference::inverter_line(inv(), 30, false, 0.6 * vdd),
        reference::inverter_line(inv(), 5, true, 0.0), stack_circuit(inv())}) {
    cc::NodalSystem system(c);
    const std::size_t n = system.size();
    std::vector<double> v_old(c.node_count(), 0.0);
    std::vector<double> x(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double u = std::fmod(0.618033988749895 * (k + 1), 1.0);
      x[k] = (0.1 + 0.8 * u) * vdd;
      v_old[c.free_nodes()[k]] = (0.9 - 0.8 * u) * vdd;
    }
    for (const bool step : {false, true}) {
      if (step) system.set_step(dt, v_old);
      sl::DenseMatrix jac(n, n);
      sl::DenseMatrix unused_jac(n, n);
      std::vector<double> f(n), f_plus(n), f_minus(n);
      system.evaluate(x, f, jac);
      constexpr double kH = 1e-6;
      sl::DenseMatrix cd(n, n);
      for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> xp = x;
        xp[j] = x[j] + kH;
        system.evaluate(xp, f_plus, unused_jac);
        xp[j] = x[j] - kH;
        system.evaluate(xp, f_minus, unused_jac);
        for (std::size_t i = 0; i < n; ++i) {
          cd(i, j) = (f_plus[i] - f_minus[i]) / (2.0 * kH);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          row = std::max(row, std::abs(cd(i, j)));
        }
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_LE(std::abs(jac(i, j) - cd(i, j)), 1e-6 * row)
              << "n=" << n << " step=" << step << " (" << i << ", " << j
              << ") vdd=" << vdd;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FigureInverters, EngineOracle,
                         ::testing::Range(std::size_t{0}, std::size_t{13}));
