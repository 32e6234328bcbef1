#pragma once

/// \file mosfet.h
/// All-region analytical MOSFET model built from the paper's ingredients:
/// weak-inversion current with slope factor m (Eq. 1), S_S from Eq. 2b,
/// the V_th decomposition of Sec. 2.2, an EKV-style interpolation for the
/// super-threshold region (needed for the nominal-V_dd points of Figs. 3
/// and 5 and Table 2's C_g V_dd/I_on metric) and a Caughey–Thomas
/// velocity-saturation correction. Backend #1 of the DeviceModel
/// interface (compact/device_model.h) and the default everywhere.
///
/// The model is polarity-agnostic: it computes source-referenced
/// *magnitudes* (an NFET's I_d(V_gs, V_ds) or a PFET's I_d(V_sg, V_sd));
/// the circuit layer applies signs. Currents scale with spec.width.

#include "compact/calibration.h"
#include "compact/device_model.h"
#include "compact/device_spec.h"
#include "compact/vth_model.h"
#include "physics/mobility.h"

namespace subscale::compact {

/// Numerically safe softplus ln(1 + e^x), the EKV interpolation kernel.
/// When `slope` is non-null it also receives d/dx, the logistic function,
/// on the same branches.
double softplus(double x, double* slope = nullptr);

class CompactMosfet final : public DeviceModel {
 public:
  /// \param spec   fully specified device (validated on construction)
  /// \param calib  calibration constants (default: fit to the paper)
  explicit CompactMosfet(DeviceSpec spec,
                         const Calibration& calib = paper_calibration());

  // ---- DeviceModel contract ----------------------------------------

  BackendKind backend() const override { return BackendKind::kBulkMosfet; }
  double drain_current(double vgs, double vds) const override;
  DeviceEval evaluate(double vgs, double vds) const override;
  /// Inverse subthreshold slope S_S [V/dec] (Eq. 2b).
  double subthreshold_swing() const override { return ss_; }
  /// Slope factor m = S_S/(vT ln 10).
  double slope_factor() const override { return n_; }
  /// Threshold magnitude at drain bias vds [V] (model parameter).
  double vth(double vds) const override;
  /// Total gate capacitance C_g = W (C_ox L_poly + 2 (C_ox l_ov + C_fr)) [F].
  double gate_capacitance() const override;
  std::shared_ptr<const DeviceModel> with_calibration(
      const Calibration& calib) const override;

  // ---- bulk-specific derived quantities -----------------------------

  /// Effective channel doping N_eff [m^-3].
  double neff() const { return neff_; }
  /// Depletion width at threshold [m].
  double wdep() const { return wdep_; }
  /// Long-channel threshold (no SCE/DIBL) [V].
  double vth_long() const;
  /// Oxide capacitance per area [F/m^2].
  double cox() const { return cox_; }

 private:
  /// The one current formula behind drain_current and evaluate; kDerivs
  /// adds the analytic g_m/g_ds without touching the current's
  /// arithmetic.
  template <bool kDerivs>
  DeviceEval eval(double vgs, double vds) const;

  double neff_ = 0.0;
  double wdep_ = 0.0;
  double ss_ = 0.0;
  double n_ = 0.0;
  double cox_ = 0.0;
  double vt_ = 0.0;

  // Bias-invariant terms of drain_current, computed once here so a bias
  // point costs three softplus and one pow (DESIGN.md §18.1). Each is
  // the value the per-call formula used to recompute, so currents are
  // bitwise unchanged.
  physics::Carrier carrier_ = physics::Carrier::kElectron;
  VthComponents vth_parts_;  ///< at V_ds = 0; .vth is vth(0)
  double q_dep_ = 0.0;       ///< depletion charge at N_eff [C/m^2]
  double mu0_ = 0.0;         ///< Masetti low-field mobility at N_eff
  double i_scale_ = 0.0;     ///< k_io 2 m, the specific current's lead
  double w_over_l_ = 0.0;    ///< W / L_eff
  double vsat_len_ = 0.0;    ///< 2 v_sat L_eff [m^2/s]
};

}  // namespace subscale::compact
