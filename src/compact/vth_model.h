#pragma once

/// \file vth_model.h
/// Threshold-voltage model following the paper's decomposition (Sec. 2.2,
/// after ref [11]): V_th = V_th0 + dV_th,halo - dV_th,SCE.
///
/// * V_th0 is the classical long-channel threshold V_FB + 2 phi_B +
///   Q_dep/C_ox evaluated at the *substrate* doping.
/// * dV_th,halo (roll-up) enters through the effective channel doping
///   N_eff(L_eff) >= N_sub: evaluating V_th0 at N_eff instead of N_sub
///   raises the threshold exactly as halos do at short channels.
/// * dV_th,SCE (roll-off incl. DIBL) uses the quasi-2-D characteristic-
///   length model: dV = k_dibl (2 (V_bi - 2 phi_B) + V_ds) exp(-L_eff/2 l_t)
///   with l_t = sqrt(eps_si T_ox W_dep / eps_ox).
///
/// Everything is computed in NFET magnitude space; a PFET's |V_th| uses
/// the same expressions (the paper treats PFETs analogously).

#include "compact/calibration.h"
#include "compact/device_spec.h"

namespace subscale::compact {

/// The pieces of the threshold voltage, for reporting and tests.
struct VthComponents {
  double vth_body = 0.0;   ///< V_FB + 2 phi_B + Q_dep(N_eff)/C_ox [V]
  double vth_sub = 0.0;    ///< same but at N_sub only (no halo roll-up) [V]
  double dvth_halo = 0.0;  ///< roll-up = vth_body - vth_sub [V]
  double dvth_sce = 0.0;   ///< roll-off incl. DIBL at the given V_ds [V]
  double vbi = 0.0;        ///< source/drain-to-channel built-in potential [V]
  double lt = 0.0;         ///< quasi-2-D characteristic length [m]
  double sce_barrier = 0.0;      ///< V_bi - 2 phi_B [V]
  double sce_attenuation = 0.0;  ///< exp(-L_eff / 2 l_t)
  double vth = 0.0;        ///< net threshold (+ calibration delta) [V]
};

/// dV_th,SCE at drain bias `vds` from a decomposition's bias-invariant
/// pieces. This and threshold_at are the one home of the roll-off
/// formula: threshold_components evaluates them, and the compact model
/// calls them per bias point on a decomposition it built once.
inline double sce_rolloff(const VthComponents& c, const Calibration& calib,
                          double vds) {
  return calib.k_dibl * (2.0 * c.sce_barrier + vds) * c.sce_attenuation;
}

/// Net threshold at drain bias `vds` from a decomposition's pieces [V].
inline double threshold_at(const VthComponents& c, const Calibration& calib,
                           double vds) {
  return c.vth_body - sce_rolloff(c, calib, vds) + calib.delta_vth;
}

/// Full decomposition at drain bias `vds` (source-referenced magnitude).
/// The `ni` form takes n_i(spec.temperature) (physics::
/// intrinsic_density_legacy) from a caller that already has it.
VthComponents threshold_components(const DeviceSpec& spec,
                                   const Calibration& calib, double vds);
VthComponents threshold_components(const DeviceSpec& spec,
                                   const Calibration& calib, double vds,
                                   double ni);

/// Net threshold voltage magnitude at drain bias `vds` [V].
double threshold_voltage(const DeviceSpec& spec, const Calibration& calib,
                         double vds);

/// DIBL coefficient [V/V]: -(dVth/dVds) evaluated between vds = 50 mV and
/// vds = vdd (the conventional lin/sat definition).
double dibl_coefficient(const DeviceSpec& spec, const Calibration& calib);

}  // namespace subscale::compact
