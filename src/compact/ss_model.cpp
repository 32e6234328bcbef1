#include "compact/ss_model.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "physics/constants.h"
#include "physics/silicon.h"

namespace subscale::compact {

double depletion_width_at_threshold(double neff, double temperature) {
  return physics::max_depletion_width(neff, temperature);
}

double depletion_width_at_threshold(double neff, double temperature,
                                    double ni) {
  return physics::max_depletion_width(neff, temperature, ni);
}

double subthreshold_swing(double neff, double tox, double leff,
                          double temperature, const Calibration& calib) {
  return subthreshold_swing(neff, tox, leff, temperature, calib,
                            physics::intrinsic_density_legacy(temperature));
}

double subthreshold_swing(double neff, double tox, double leff,
                          double temperature, const Calibration& calib,
                          double ni) {
  if (tox <= 0.0 || leff <= 0.0) {
    throw std::invalid_argument("subthreshold_swing: invalid geometry");
  }
  const double vt = physics::thermal_voltage(temperature);
  const double wdep = depletion_width_at_threshold(neff, temperature, ni);
  const double body = 1.0 + calib.c_dep * 3.0 * tox / wdep;
  const double decay_length = calib.c_len * (wdep + 3.0 * tox);
  const double sce =
      1.0 + calib.c_sce * (11.0 * tox / wdep) *
                std::exp(-std::numbers::pi * leff / (2.0 * decay_length));
  return std::numbers::ln10 * vt * body * sce;
}

double subthreshold_swing_long(double neff, double tox, double temperature,
                               const Calibration& calib) {
  if (tox <= 0.0) {
    throw std::invalid_argument("subthreshold_swing_long: invalid tox");
  }
  const double vt = physics::thermal_voltage(temperature);
  const double wdep = depletion_width_at_threshold(neff, temperature);
  return std::numbers::ln10 * vt * (1.0 + calib.c_dep * 3.0 * tox / wdep);
}

double slope_factor_from_swing(double ss, double temperature) {
  return ss / (std::numbers::ln10 * physics::thermal_voltage(temperature));
}

}  // namespace subscale::compact
