#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "physics/constants.h"
#include "physics/fermi.h"
#include "physics/mobility.h"
#include "physics/silicon.h"
#include "physics/units.h"

namespace sp = subscale::physics;
namespace su = subscale::units;

// ---- constants & units -----------------------------------------------------

TEST(Constants, ThermalVoltageAt300K) {
  EXPECT_NEAR(sp::kVt300, 0.025852, 1e-5);
  EXPECT_DOUBLE_EQ(sp::thermal_voltage(300.0), sp::kVt300);
}

TEST(Constants, PermittivityOrdering) {
  EXPECT_GT(sp::kEpsSi, sp::kEpsSiO2);
  EXPECT_NEAR(sp::kEpsSi / sp::kEps0, 11.7, 1e-12);
}

TEST(Units, RoundTrips) {
  EXPECT_DOUBLE_EQ(su::to_nm(su::nm(65.0)), 65.0);
  EXPECT_DOUBLE_EQ(su::to_per_cm3(su::per_cm3(1.52e18)), 1.52e18);
  EXPECT_DOUBLE_EQ(su::to_pA_per_um(su::pA_per_um(100.0)), 100.0);
  EXPECT_DOUBLE_EQ(su::to_mV(su::mV(250.0)), 250.0);
  EXPECT_DOUBLE_EQ(su::to_fF_per_um(su::fF_per_um(1.5)), 1.5);
}

TEST(Units, MagnitudesAreSi) {
  EXPECT_DOUBLE_EQ(su::nm(1.0), 1e-9);
  EXPECT_DOUBLE_EQ(su::per_cm3(1.0), 1e6);
  // 100 pA/um = 1e-10 A / 1e-6 m = 1e-4 A/m.
  EXPECT_DOUBLE_EQ(su::pA_per_um(100.0), 1e-4);
}

// ---- silicon ----------------------------------------------------------------

TEST(Silicon, BandgapAt300K) {
  EXPECT_NEAR(sp::silicon_bandgap_ev(300.0), 1.12, 0.01);
  // Bandgap shrinks with temperature.
  EXPECT_GT(sp::silicon_bandgap_ev(200.0), sp::silicon_bandgap_ev(400.0));
}

TEST(Silicon, IntrinsicDensityAnchors) {
  EXPECT_NEAR(sp::intrinsic_density(300.0), 1.0e16, 1e13);
  EXPECT_NEAR(sp::intrinsic_density_legacy(300.0), 1.45e16, 1e13);
  // Strong increase with temperature (roughly doubles every ~8 K near RT).
  EXPECT_GT(sp::intrinsic_density(310.0) / sp::intrinsic_density(300.0), 1.8);
}

TEST(Silicon, BulkPotentialTypicalDoping) {
  // Na = 1.52e18 cm^-3 (Table 2, 90nm): phi_F ~ 0.47-0.49 V.
  const double na = su::per_cm3(1.52e18);
  const double phi_f = sp::bulk_potential(na, 300.0);
  EXPECT_GT(phi_f, 0.44);
  EXPECT_LT(phi_f, 0.52);
  // Monotone in doping.
  EXPECT_GT(sp::bulk_potential(10.0 * na, 300.0), phi_f);
}

TEST(Silicon, BulkPotentialRejectsIntrinsic) {
  EXPECT_THROW(sp::bulk_potential(1e10, 300.0), std::invalid_argument);
}

TEST(Silicon, DepletionWidthMatchesClosedForm) {
  const double na = su::per_cm3(2.0e18);
  const double psi = 1.0;
  const double w = sp::depletion_width(na, psi);
  const double expected =
      std::sqrt(2.0 * sp::kEpsSi * psi / (sp::kQ * na));
  EXPECT_DOUBLE_EQ(w, expected);
  // ~25 nm for this doping.
  EXPECT_GT(su::to_nm(w), 15.0);
  EXPECT_LT(su::to_nm(w), 40.0);
}

TEST(Silicon, MaxDepletionWidthShrinksWithDoping) {
  const double w1 = sp::max_depletion_width(su::per_cm3(1e18), 300.0);
  const double w2 = sp::max_depletion_width(su::per_cm3(1e19), 300.0);
  EXPECT_GT(w1, w2);
}

TEST(Silicon, OxideCapacitance) {
  // 2.1 nm oxide: Cox = 3.9*eps0/2.1nm ~ 1.64e-2 F/m^2.
  EXPECT_NEAR(sp::oxide_capacitance(su::nm(2.1)), 1.644e-2, 2e-4);
  EXPECT_THROW(sp::oxide_capacitance(0.0), std::invalid_argument);
}

TEST(Silicon, DepletionCapacitanceConsistency) {
  const double na = su::per_cm3(2.4e18);
  const double cdep = sp::depletion_capacitance(na, 300.0);
  EXPECT_DOUBLE_EQ(cdep, sp::kEpsSi / sp::max_depletion_width(na, 300.0));
}

TEST(Silicon, BuiltinPotentialSourceDrainJunction) {
  // 2.4e18 channel against 1e20 S/D: Vbi slightly above 1 V.
  const double vbi =
      sp::builtin_potential(su::per_cm3(2.4e18), su::per_cm3(1e20), 300.0);
  EXPECT_GT(vbi, 1.0);
  EXPECT_LT(vbi, 1.2);
}

TEST(Silicon, FlatbandNPolyIsNegative) {
  const double vfb = sp::flatband_voltage_npoly_psub(su::per_cm3(2e18), 300.0);
  EXPECT_LT(vfb, -0.9);
  EXPECT_GT(vfb, -1.2);
}

// ---- mobility ----------------------------------------------------------------

TEST(Mobility, MasettiLimits) {
  // Lightly doped silicon approaches the lattice-limited values.
  const double mu_n_low =
      sp::masetti_mobility(sp::Carrier::kElectron, su::per_cm3(1e14));
  EXPECT_NEAR(mu_n_low * 1e4, 1417.0, 30.0);  // cm^2/Vs
  const double mu_p_low =
      sp::masetti_mobility(sp::Carrier::kHole, su::per_cm3(1e14));
  EXPECT_NEAR(mu_p_low * 1e4, 470.0, 20.0);
  // Heavy doping degrades strongly.
  const double mu_n_high =
      sp::masetti_mobility(sp::Carrier::kElectron, su::per_cm3(1e19));
  EXPECT_LT(mu_n_high, 0.3 * mu_n_low);
  // Electrons always faster than holes at equal doping.
  EXPECT_GT(mu_n_low, mu_p_low);
}

TEST(Mobility, MasettiMonotoneInDoping) {
  double prev = 1e9;
  for (double n_cm3 = 1e15; n_cm3 < 1e20; n_cm3 *= 10.0) {
    const double mu =
        sp::masetti_mobility(sp::Carrier::kElectron, su::per_cm3(n_cm3));
    EXPECT_LT(mu, prev) << "doping " << n_cm3;
    prev = mu;
  }
}

TEST(Mobility, CaugheyThomasReducesWithField) {
  const double mu0 = 0.04;  // 400 cm^2/Vs
  const double mu_low =
      sp::caughey_thomas_mobility(sp::Carrier::kElectron, mu0, 1e4, 300.0);
  const double mu_high =
      sp::caughey_thomas_mobility(sp::Carrier::kElectron, mu0, 1e7, 300.0);
  EXPECT_NEAR(mu_low, mu0, 0.01 * mu0);
  EXPECT_LT(mu_high, 0.5 * mu0);
  // In the saturated limit, mu*E -> vsat.
  const double e_big = 5e8;
  const double v = sp::caughey_thomas_mobility(sp::Carrier::kElectron, mu0,
                                               e_big, 300.0) *
                   e_big;
  EXPECT_NEAR(v, sp::saturation_velocity(sp::Carrier::kElectron, 300.0),
              0.05 * 1.07e5);
}

TEST(Mobility, CaugheyThomasClosedFormMatchesPowForm) {
  // beta = 2 (electrons) is mu0 / sqrt(1 + x^2) and beta = 1 (holes)
  // mu0 / (1 + x), x = mu0 E / vsat: within 2 ULP of the general
  // mu0 / (1 + x^beta)^(1/beta) through std::pow, from a negligible
  // field to deep saturation and for either sign of E.
  const auto ulps = [](double a, double b) {
    return std::abs(a - b) /
           (std::nextafter(b, std::numeric_limits<double>::infinity()) - b);
  };
  for (const sp::Carrier carrier :
       {sp::Carrier::kElectron, sp::Carrier::kHole}) {
    const double beta = carrier == sp::Carrier::kElectron ? 2.0 : 1.0;
    const double vsat = sp::saturation_velocity(carrier, 300.0);
    for (const double mu0 : {0.005, 0.047, 0.14}) {
      for (double e = 1.0; e < 1e10; e *= 1.3) {
        for (const double field : {e, -e}) {
          const double x = mu0 * e / vsat;
          const double pow_form =
              mu0 / std::pow(1.0 + std::pow(x, beta), 1.0 / beta);
          const double closed =
              sp::caughey_thomas_mobility_vsat(carrier, mu0, field, vsat);
          EXPECT_LE(ulps(closed, pow_form), 2.0)
              << "beta " << beta << " mu0 " << mu0 << " E " << field;
        }
      }
      EXPECT_EQ(sp::caughey_thomas_mobility_vsat(carrier, mu0, 0.0, vsat),
                mu0);
    }
  }
}

TEST(Mobility, SaturationVelocityTemperature) {
  EXPECT_NEAR(sp::saturation_velocity(sp::Carrier::kElectron, 300.0), 1.07e5,
              1e3);
  EXPECT_GT(sp::saturation_velocity(sp::Carrier::kElectron, 250.0),
            sp::saturation_velocity(sp::Carrier::kElectron, 350.0));
}

TEST(Mobility, SurfaceDegradationBounded) {
  for (double e = 0.0; e <= 2e8; e += 2e7) {
    const double f = sp::surface_degradation(sp::Carrier::kElectron, e);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  EXPECT_DOUBLE_EQ(sp::surface_degradation(sp::Carrier::kElectron, 0.0), 1.0);
}

// ---- fermi / Bernoulli --------------------------------------------------------

TEST(Fermi, BernoulliAtZero) {
  const sp::BernoulliPair zero = sp::bernoulli_pair(0.0);
  EXPECT_EQ(zero.at_x, 1.0);
  EXPECT_EQ(zero.at_minus_x, 1.0);
  EXPECT_NEAR(sp::bernoulli_pair(1e-12).at_x, 1.0, 1e-11);
  EXPECT_NEAR(sp::bernoulli_pair(1e-12).at_minus_x, 1.0, 1e-11);
}

TEST(Fermi, BernoulliIdentity) {
  // B(-x) = B(x) + x for all x, and the pair at -x is the pair at x
  // swapped, bit for bit, so both ends of an edge see the same values.
  for (double x : {1e-8, 1e-4, 0.1, 1.0, 5.0, 50.0, 800.0}) {
    const sp::BernoulliPair b = sp::bernoulli_pair(x);
    EXPECT_NEAR(b.at_minus_x, b.at_x + x, 1e-12 * std::max(1.0, x))
        << "x = " << x;
    const sp::BernoulliPair swapped = sp::bernoulli_pair(-x);
    EXPECT_EQ(swapped.at_x, b.at_minus_x) << "x = " << x;
    EXPECT_EQ(swapped.at_minus_x, b.at_x) << "x = " << x;
  }
}

TEST(Fermi, BernoulliLargeArguments) {
  EXPECT_NEAR(sp::bernoulli_pair(800.0).at_x, 0.0, 1e-300);
  EXPECT_EQ(sp::bernoulli_pair(800.0).at_minus_x, 800.0);
  EXPECT_EQ(sp::bernoulli_pair(-800.0).at_x, 800.0);
}

TEST(Fermi, BernoulliPairMatchesExpm1Quotient) {
  // Against x / expm1(x) evaluated at x and at -x separately, on both
  // signs from the series branches to just past the +-700 branch point,
  // where x / expm1(x) is still finite. Both sides round a few times,
  // so allow 4 ULP of the reference.
  const auto quotient = [](double x) { return x / std::expm1(x); };
  const auto expect_close = [](double got, double want, double x,
                               const char* which) {
    const double ulp = std::numeric_limits<double>::epsilon() * want;
    EXPECT_LE(std::abs(got - want), 4.0 * ulp)
        << which << " at x = " << x << ": " << got << " vs " << want;
  };
  std::vector<double> xs = {1e-9,  5e-5,  2e-4,  699.9,
                            700.0, 700.5, 705.0, 709.0};
  for (double x = 1e-3; x < 700.0; x *= 1.07) xs.push_back(x);
  for (const double ax : xs) {
    for (const double x : {ax, -ax}) {
      const sp::BernoulliPair b = sp::bernoulli_pair(x);
      expect_close(b.at_x, quotient(x), x, "B(x)");
      expect_close(b.at_minus_x, quotient(-x), x, "B(-x)");
    }
  }
}

TEST(Fermi, CarrierDensities) {
  const double ni = 1.45e16;
  const double vt = sp::kVt300;
  // At psi = phi_n = phi_p = 0 both carriers sit at ni.
  EXPECT_DOUBLE_EQ(sp::electron_density(0.0, 0.0, ni, vt), ni);
  EXPECT_DOUBLE_EQ(sp::hole_density(0.0, 0.0, ni, vt), ni);
  // np product is invariant to psi at equal quasi-Fermi levels.
  const double n = sp::electron_density(0.3, 0.0, ni, vt);
  const double p = sp::hole_density(0.3, 0.0, ni, vt);
  EXPECT_NEAR(n * p, ni * ni, 1e-3 * ni * ni);
}

TEST(Fermi, NeutralPotentialSolvesNeutrality) {
  const double ni = 1.45e16;
  const double vt = sp::kVt300;
  for (double net : {1e24, -1e24, 1e20, -3e22}) {
    const double psi = sp::neutral_potential(net, ni, vt);
    const double n = sp::electron_density(psi, 0.0, ni, vt);
    const double p = sp::hole_density(psi, 0.0, ni, vt);
    // n - p = net doping (charge neutrality).
    EXPECT_NEAR((n - p - net) / std::abs(net), 0.0, 1e-10) << "net " << net;
  }
}

// ---- property sweep: depletion width vs doping ---------------------------------

class DepletionSweep : public ::testing::TestWithParam<double> {};

TEST_P(DepletionSweep, WidthInPlausibleNanometerRange) {
  const double na_cm3 = GetParam();
  const double w = sp::max_depletion_width(su::per_cm3(na_cm3), 300.0);
  // Across 1e17..1e19 cm^-3 the depletion width must stay in 3..120 nm.
  EXPECT_GT(su::to_nm(w), 3.0);
  EXPECT_LT(su::to_nm(w), 120.0);
}

INSTANTIATE_TEST_SUITE_P(DopingRange, DepletionSweep,
                         ::testing::Values(1e17, 3e17, 1e18, 3e18, 1e19));
