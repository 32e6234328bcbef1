#pragma once

/// \file nanowire.h
/// Cylindrical gate-all-around (GAA) nanowire FET compact model —
/// backend #2 of the DeviceModel interface, following the
/// surface-potential formulation of silicon-nanowire compact models
/// (PAPERS.md: "A Compact Model of Silicon-Based Nanowire FET for
/// Circuit Simulation and Design").
///
/// Subthreshold-accurate ingredients:
///   * cylindrical oxide capacitance per unit silicon-surface area
///     C_ox' = eps_ox / (R ln(1 + t_ox/R));
///   * the GAA natural (screening) length
///     lambda = sqrt((2 eps_si R^2 ln(1 + t_ox/R) + eps_ox R^2)
///                   / (16 eps_ox)),
///     which sets both the slope-factor degradation
///     n = 1 + c_sce exp(-L_eff / (2 c_len lambda)) and the SCE/DIBL
///     V_th roll-off — a GAA wire at the paper's dimensions is
///     near-ideal (n -> 1, S_S -> vT ln 10);
///   * a charge-based long-channel threshold: the gate must supply the
///     threshold sheet charge C_ox' vT against the wire's intrinsic
///     charge budget q n_i(T) R / 2, giving
///     V_th0 = dPhi_gate + vT ln(C_ox' vT / (q n_i(T) R / 2)),
///     temperature-correct through n_i(T) and vT;
///   * body doping acts through the depleted cross-section charge,
///     dV_th,dop = q N_eff R / (4 C_ox') — monotone in doping, so the
///     I_off-constrained design loops of both scaling strategies
///     converge on this backend exactly as they do on bulk.
///
/// Width semantics: spec.width is the LAYOUT width; wires are placed at
/// a pitch of three diameters (6R), each contributing an electrical
/// width of 2 pi R, so currents and capacitances stay per-layout-width
/// comparable (pA/um) with the bulk backend. The Calibration fields
/// keep their roles (k_io current scale, k_vsat velocity saturation,
/// c_sce/c_len short-channel shape, k_dibl DIBL amplitude, delta_vth
/// additive shift — which is how variability resampling works here too).

#include "compact/calibration.h"
#include "compact/device_model.h"
#include "compact/device_spec.h"

namespace subscale::compact {

class NanowireFet final : public DeviceModel {
 public:
  /// \param spec   device description; nw_radius must be positive
  /// \param calib  calibration constants (default: fit to the paper)
  explicit NanowireFet(DeviceSpec spec,
                       const Calibration& calib = paper_calibration());

  // ---- DeviceModel contract ----------------------------------------

  BackendKind backend() const override { return BackendKind::kNanowireGaa; }
  double drain_current(double vgs, double vds) const override;
  DeviceEval evaluate(double vgs, double vds) const override;
  double subthreshold_swing() const override { return ss_; }
  double slope_factor() const override { return n_; }
  double vth(double vds) const override;
  double gate_capacitance() const override;
  std::shared_ptr<const DeviceModel> with_calibration(
      const Calibration& calib) const override;

  // ---- nanowire-specific derived quantities -------------------------

  /// Cylindrical oxide capacitance per silicon-surface area [F/m^2].
  double cox() const { return cox_; }
  /// GAA natural length lambda [m].
  double natural_length() const { return lambda_; }
  /// Effective body doping N_eff [m^-3] (same halo weighting as bulk).
  double neff() const { return neff_; }
  /// Total electrical width: wires per layout width (pitch = 3
  /// diameters; fractional allowed so currents stay continuous in
  /// spec.width) * 2 pi R [m].
  double electrical_width() const { return weff_; }
  /// Long-channel threshold (no SCE/DIBL) [V].
  double vth_long() const;

 private:
  /// The one current formula behind drain_current and evaluate; kDerivs
  /// adds the closed-form g_m/g_ds.
  template <bool kDerivs>
  DeviceEval eval(double vgs, double vds) const;

  double neff_ = 0.0;
  double cox_ = 0.0;
  double lambda_ = 0.0;
  double n_ = 0.0;
  double ss_ = 0.0;
  double vt_ = 0.0;
  double ni_ = 0.0;
  double vbi_ = 0.0;
  double mu_ = 0.0;
  double weff_ = 0.0;
  double vth0_ = 0.0;      ///< charge-based intrinsic-wire threshold [V]
  double vth_dop_ = 0.0;   ///< body-doping shift [V]

  // Bias-invariant terms of drain_current, computed once (DESIGN.md
  // §18.1); each is the value the per-call formula used to recompute.
  double sce_ = 0.0;       ///< exp(-L_eff / (2 c_len lambda))
  double i0_ = 0.0;        ///< k_io 2 n mu C_ox' vT^2 W_eff / L_eff [A]
  double vsat_len_ = 0.0;  ///< 2 v_sat L_eff [m^2/s]
};

}  // namespace subscale::compact
