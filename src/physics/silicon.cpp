#include "physics/silicon.h"

#include <cmath>
#include <stdexcept>

#include "physics/constants.h"

namespace subscale::physics {

double silicon_bandgap_ev(double temperature_kelvin) {
  constexpr double eg0 = 1.1696;     // eV at 0 K
  constexpr double alpha = 4.73e-4;  // eV/K
  constexpr double beta = 636.0;     // K
  const double t = temperature_kelvin;
  return eg0 - alpha * t * t / (t + beta);
}

namespace {

// n_i(T) with an arbitrary 300 K anchor: n_i ∝ T^{3/2} exp(-Eg/2kT).
double intrinsic_with_anchor(double temperature_kelvin, double ni300) {
  if (temperature_kelvin <= 0.0) {
    throw std::invalid_argument("intrinsic_density: T must be positive");
  }
  const double t = temperature_kelvin;
  const double eg_t = silicon_bandgap_ev(t);
  const double eg_300 = silicon_bandgap_ev(kT300);
  const double vt_t = thermal_voltage(t);
  const double vt_300 = thermal_voltage(kT300);
  const double ratio = std::pow(t / kT300, 1.5) *
                       std::exp(-eg_t / (2.0 * vt_t) + eg_300 / (2.0 * vt_300));
  return ni300 * ratio;
}

}  // namespace

double intrinsic_density(double temperature_kelvin) {
  return intrinsic_with_anchor(temperature_kelvin, 1.0e16);  // m^-3
}

double intrinsic_density_legacy(double temperature_kelvin) {
  return intrinsic_with_anchor(temperature_kelvin, 1.45e16);  // m^-3
}

double bulk_potential(double acceptor_density, double temperature_kelvin) {
  return bulk_potential(acceptor_density, temperature_kelvin,
                        intrinsic_density_legacy(temperature_kelvin));
}

double bulk_potential(double acceptor_density, double temperature_kelvin,
                      double ni) {
  if (acceptor_density <= ni) {
    throw std::invalid_argument("bulk_potential: doping must exceed n_i");
  }
  return thermal_voltage(temperature_kelvin) *
         std::log(acceptor_density / ni);
}

double surface_potential_at_threshold(double acceptor_density,
                                      double temperature_kelvin) {
  return surface_potential_at_threshold(
      acceptor_density, temperature_kelvin,
      intrinsic_density_legacy(temperature_kelvin));
}

double surface_potential_at_threshold(double acceptor_density,
                                      double temperature_kelvin, double ni) {
  return 2.0 * bulk_potential(acceptor_density, temperature_kelvin, ni);
}

double depletion_width(double acceptor_density, double surface_potential) {
  if (acceptor_density <= 0.0 || surface_potential <= 0.0) {
    throw std::invalid_argument("depletion_width: non-positive argument");
  }
  return std::sqrt(2.0 * kEpsSi * surface_potential /
                   (kQ * acceptor_density));
}

double max_depletion_width(double acceptor_density,
                           double temperature_kelvin) {
  return max_depletion_width(acceptor_density, temperature_kelvin,
                             intrinsic_density_legacy(temperature_kelvin));
}

double max_depletion_width(double acceptor_density, double temperature_kelvin,
                           double ni) {
  return depletion_width(acceptor_density,
                         surface_potential_at_threshold(
                             acceptor_density, temperature_kelvin, ni));
}

double depletion_charge(double acceptor_density, double temperature_kelvin) {
  return depletion_charge(acceptor_density, temperature_kelvin,
                          intrinsic_density_legacy(temperature_kelvin));
}

double depletion_charge(double acceptor_density, double temperature_kelvin,
                        double ni) {
  const double psi =
      surface_potential_at_threshold(acceptor_density, temperature_kelvin, ni);
  return std::sqrt(2.0 * kQ * kEpsSi * acceptor_density * psi);
}

double depletion_capacitance(double acceptor_density,
                             double temperature_kelvin) {
  return kEpsSi / max_depletion_width(acceptor_density, temperature_kelvin);
}

double oxide_capacitance(double oxide_thickness) {
  if (oxide_thickness <= 0.0) {
    throw std::invalid_argument("oxide_capacitance: t_ox must be positive");
  }
  return kEpsSiO2 / oxide_thickness;
}

double builtin_potential(double na, double nd, double temperature_kelvin) {
  return builtin_potential(na, nd, temperature_kelvin,
                           intrinsic_density_legacy(temperature_kelvin));
}

double builtin_potential(double na, double nd, double temperature_kelvin,
                         double ni) {
  if (na <= 0.0 || nd <= 0.0) {
    throw std::invalid_argument("builtin_potential: non-positive doping");
  }
  return thermal_voltage(temperature_kelvin) * std::log(na * nd / (ni * ni));
}

double flatband_voltage_npoly_psub(double acceptor_density,
                                   double temperature_kelvin) {
  return flatband_voltage_npoly_psub(
      acceptor_density, temperature_kelvin,
      intrinsic_density_legacy(temperature_kelvin));
}

double flatband_voltage_npoly_psub(double acceptor_density,
                                   double temperature_kelvin, double ni) {
  const double eg = silicon_bandgap_ev(temperature_kelvin);
  const double phi_f = bulk_potential(acceptor_density, temperature_kelvin, ni);
  return -(eg / 2.0 + phi_f);
}

}  // namespace subscale::physics
