#include "physics/mobility.h"

#include <cmath>
#include <stdexcept>

#include "physics/constants.h"

namespace subscale::physics {

namespace {

struct MasettiParams {
  double mu_min1;  // m^2/Vs
  double mu_min2;
  double mu1;
  double mu_max;
  double pc;  // m^-3
  double cr;
  double cs;
  double alpha;
  double beta;
};

// Masetti et al., IEEE TED 30(7), 1983; parameters converted to SI.
constexpr MasettiParams kElectronParams{
    .mu_min1 = 52.2e-4,
    .mu_min2 = 52.2e-4,
    .mu1 = 43.4e-4,
    .mu_max = 1417.0e-4,
    .pc = 0.0,
    .cr = 9.68e22,   // 9.68e16 cm^-3
    .cs = 3.43e26,   // 3.43e20 cm^-3
    .alpha = 0.680,
    .beta = 2.0,
};

constexpr MasettiParams kHoleParams{
    .mu_min1 = 44.9e-4,
    .mu_min2 = 0.0,
    .mu1 = 29.0e-4,
    .mu_max = 470.5e-4,
    .pc = 9.23e22,   // 9.23e16 cm^-3
    .cr = 2.23e23,   // 2.23e17 cm^-3
    .cs = 6.10e26,   // 6.10e20 cm^-3
    .alpha = 0.719,
    .beta = 2.0,
};

}  // namespace

double masetti_mobility(Carrier carrier, double total_doping) {
  if (total_doping < 0.0) {
    throw std::invalid_argument("masetti_mobility: negative doping");
  }
  const MasettiParams& p =
      (carrier == Carrier::kElectron) ? kElectronParams : kHoleParams;
  double mu = p.mu_min1;
  if (p.pc > 0.0 && total_doping > 0.0) {
    mu = p.mu_min1 * std::exp(-p.pc / total_doping);
  }
  const double n = total_doping;
  mu += (p.mu_max - p.mu_min2) / (1.0 + std::pow(n / p.cr, p.alpha));
  mu -= p.mu1 / (1.0 + std::pow(p.cs / std::max(n, 1.0), p.beta));
  return mu;
}

double saturation_velocity(Carrier carrier, double temperature_kelvin) {
  // Canali model: vsat = vsat300 / (1 + c*(T/300 - 1)); c ~ 0.8 approximated
  // via the standard exponent form vsat(T) = vsat300*(300/T)^k.
  const double vsat300 = (carrier == Carrier::kElectron) ? 1.07e5 : 8.37e4;
  const double k = (carrier == Carrier::kElectron) ? 0.87 : 0.52;
  return vsat300 * std::pow(kT300 / temperature_kelvin, k);
}

double caughey_thomas_mobility_vsat(Carrier carrier,
                                    double low_field_mobility,
                                    double parallel_field, double vsat) {
  if (low_field_mobility <= 0.0) {
    throw std::invalid_argument("caughey_thomas_mobility: mu0 <= 0");
  }
  // (1 + x^beta)^(1/beta) in closed form: beta = 2 for electrons, 1 for
  // holes.
  const double x = low_field_mobility * std::abs(parallel_field) / vsat;
  if (carrier == Carrier::kElectron) {
    return low_field_mobility / std::sqrt(1.0 + x * x);
  }
  return low_field_mobility / (1.0 + x);
}

double caughey_thomas_mobility(Carrier carrier, double low_field_mobility,
                               double parallel_field,
                               double temperature_kelvin) {
  return caughey_thomas_mobility_vsat(
      carrier, low_field_mobility, parallel_field,
      saturation_velocity(carrier, temperature_kelvin));
}

double surface_degradation(Carrier carrier, double effective_normal_field,
                           double* slope) {
  // Reference fields chosen to give ~2x degradation at E_eff ~ 1 MV/cm for
  // electrons, matching universal-mobility-curve behaviour.
  const double e_ref = (carrier == Carrier::kElectron) ? 6.7e7 : 7.0e7;  // V/m
  const double nu = (carrier == Carrier::kElectron) ? 1.6 : 1.0;
  const double e = std::abs(effective_normal_field);
  const double r = std::pow(e / e_ref, nu);
  const double factor = 1.0 / (1.0 + r);
  if (slope != nullptr) {
    // d/dE of 1/(1 + r) with dr/d|E| = nu r/|E|; at E = 0 the limit is
    // -1/E_ref for nu = 1 and 0 for nu > 1.
    const double dr_de = e > 0.0 ? nu * r / e : (nu == 1.0 ? 1.0 / e_ref : 0.0);
    *slope = -dr_de * factor * factor *
             (effective_normal_field < 0.0 ? -1.0 : 1.0);
  }
  return factor;
}

}  // namespace subscale::physics
