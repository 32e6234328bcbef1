// Differential oracle tier for the compact evaluation path (DESIGN.md
// §18). The per-call formulas the models hoisted their bias-invariant
// terms out of, and the bisection VTC with its finite-difference gain,
// live here as the reference, the way ReferenceBandedLu anchors the
// blocked LU:
//   * drain_current/vth reproduce the per-call formulas bitwise on dense
//     bias grids over every designed device of the paper deck, the
//     extended and hot-corner decks, and the nanowire deck;
//   * evaluate() returns that same current bitwise, with g_m/g_ds equal
//     to central differences;
//   * the Newton VTC and the implicit-gain noise margins agree with the
//     bisection/finite-difference ones at the stated tolerances, and so
//     do the SRAM storage-node curves and their butterfly SNMs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cards/technology_card.h"
#include "circuits/inverter.h"
#include "circuits/sram6t.h"
#include "circuits/vtc.h"
#include "compact/device_model.h"
#include "compact/mosfet.h"
#include "compact/nanowire.h"
#include "compact/vth_model.h"
#include "core/scaling_study.h"
#include "opt/bisection.h"
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
