#pragma once

/// \file ss_model.h
/// The paper's inverse-subthreshold-slope model (Eq. 2):
///
///   S_S = 2.3 vT (1 + c_dep 3 Tox/Wdep)
///              (1 + c_sce 11 Tox/Wdep exp(-pi Leff / (2 c_len (Wdep+3Tox))))
///
/// with W_dep the depletion width at threshold for the effective channel
/// doping N_eff, and c_* calibration constants (1.0 recovers the textbook
/// form from Taur & Ning, the paper's ref [19]).

#include "compact/calibration.h"

namespace subscale::compact {

/// Depletion width at threshold for doping neff [m^-3] at temperature T.
/// The `ni` forms take n_i(T) (physics::intrinsic_density_legacy) from a
/// caller that already has it; the others compute it.
double depletion_width_at_threshold(double neff, double temperature);
double depletion_width_at_threshold(double neff, double temperature,
                                    double ni);

/// Inverse subthreshold slope S_S [V/decade], paper Eq. 2(b).
/// \param neff effective channel doping [m^-3]
/// \param tox  oxide thickness [m]
/// \param leff effective channel length [m]
double subthreshold_swing(double neff, double tox, double leff,
                          double temperature, const Calibration& calib);
double subthreshold_swing(double neff, double tox, double leff,
                          double temperature, const Calibration& calib,
                          double ni);

/// Long-channel limit of Eq. 2(b): drops the exponential term.
double subthreshold_swing_long(double neff, double tox, double temperature,
                               const Calibration& calib);

/// Subthreshold slope factor m = S_S / (vT ln 10) (Eq. 2a inverted).
double slope_factor_from_swing(double ss, double temperature);

}  // namespace subscale::compact
