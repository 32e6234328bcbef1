#include "compact/vth_model.h"

#include <cmath>

#include "compact/ss_model.h"
#include "physics/constants.h"
#include "physics/silicon.h"

namespace subscale::compact {

namespace {

/// Long-channel threshold at channel doping `nch`.
double body_threshold(double nch, double tox, double temperature, double ni) {
  const double two_phi_b =
      physics::surface_potential_at_threshold(nch, temperature, ni);
  const double vfb =
      physics::flatband_voltage_npoly_psub(nch, temperature, ni);
  const double qdep = physics::depletion_charge(nch, temperature, ni);
  const double cox = physics::oxide_capacitance(tox);
  return vfb + two_phi_b + qdep / cox;
}

}  // namespace

VthComponents threshold_components(const DeviceSpec& spec,
                                   const Calibration& calib, double vds) {
  return threshold_components(
      spec, calib, vds, physics::intrinsic_density_legacy(spec.temperature));
}

VthComponents threshold_components(const DeviceSpec& spec,
                                   const Calibration& calib, double vds,
                                   double ni) {
  spec.validate();
  const double temperature = spec.temperature;
  const double tox = spec.geometry.tox;
  const double neff = spec.effective_channel_doping(calib.k_halo);

  VthComponents c;
  c.vth_body = body_threshold(neff, tox, temperature, ni);
  c.vth_sub = body_threshold(spec.levels.nsub, tox, temperature, ni);
  c.dvth_halo = c.vth_body - c.vth_sub;

  const double two_phi_b =
      physics::surface_potential_at_threshold(neff, temperature, ni);
  c.vbi =
      physics::builtin_potential(neff, spec.levels.nsd, temperature, ni);

  const double wdep = depletion_width_at_threshold(neff, temperature, ni);
  c.lt = std::sqrt(physics::kEpsSi * tox * wdep / physics::kEpsSiO2);

  c.sce_barrier = c.vbi - two_phi_b;
  c.sce_attenuation = std::exp(-spec.geometry.leff() / (2.0 * c.lt));
  c.dvth_sce = sce_rolloff(c, calib, vds);
  c.vth = threshold_at(c, calib, vds);
  return c;
}

double threshold_voltage(const DeviceSpec& spec, const Calibration& calib,
                         double vds) {
  return threshold_components(spec, calib, vds).vth;
}

double dibl_coefficient(const DeviceSpec& spec, const Calibration& calib) {
  const double vth_lin = threshold_voltage(spec, calib, 0.05);
  const double vth_sat = threshold_voltage(spec, calib, spec.vdd);
  return (vth_lin - vth_sat) / (spec.vdd - 0.05);
}

}  // namespace subscale::compact
