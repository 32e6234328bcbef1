#include "compact/nanowire.h"

#include <cmath>
#include <stdexcept>

#include "compact/mosfet.h"  // softplus
#include "physics/constants.h"
#include "physics/mobility.h"
#include "physics/silicon.h"

namespace subscale::compact {

namespace {

/// Gate work-function offset relative to the band-edge reference [V]: a
/// metal gate tuned 200 mV toward midgap, the standard GAA knob that
/// places the intrinsic-wire threshold low enough for the paper's
/// leakage-constrained design loops to have a reachable I_off window
/// (doping then raises V_th from there, monotonically).
constexpr double kGateWorkFunctionOffset = -0.2;

}  // namespace

NanowireFet::NanowireFet(DeviceSpec spec, const Calibration& calib)
    : DeviceModel(std::move(spec), calib) {
  if (spec_.nw_radius <= 0.0) {
    throw std::invalid_argument("NanowireFet: nw_radius must be positive");
  }
  const double r = spec_.nw_radius;
  const double tox = spec_.geometry.tox;
  const double leff = spec_.geometry.leff();

  vt_ = physics::thermal_voltage(spec_.temperature);
  ni_ = physics::intrinsic_density_legacy(spec_.temperature);
  neff_ = spec_.effective_channel_doping(calib_.k_halo);

  // Cylindrical oxide capacitance per unit silicon-surface area.
  const double log_ox = std::log(1.0 + tox / r);
  cox_ = physics::kEpsSiO2 / (r * log_ox);

  // GAA natural length (cylindrical quasi-2-D screening length).
  lambda_ = std::sqrt((2.0 * physics::kEpsSi * r * r * log_ox +
                       physics::kEpsSiO2 * r * r) /
                      (16.0 * physics::kEpsSiO2));

  // Slope degradation: near-ideal, decaying with L_eff / lambda.
  sce_ = std::exp(-leff / (2.0 * calib_.c_len * lambda_));
  n_ = 1.0 + calib_.c_sce * sce_;
  ss_ = n_ * vt_ * std::log(10.0);

  // Charge-based long-channel threshold of the intrinsic wire plus the
  // depleted-cross-section doping shift (see file comment).
  vth0_ = kGateWorkFunctionOffset +
          vt_ * std::log(cox_ * vt_ / (physics::kQ * ni_ * r / 2.0));
  vth_dop_ = physics::kQ * neff_ * r / (4.0 * cox_);

  vbi_ = physics::builtin_potential(neff_, spec_.levels.nsd,
                                    spec_.temperature);

  const auto carrier = spec_.polarity == doping::Polarity::kNfet
                           ? physics::Carrier::kElectron
                           : physics::Carrier::kHole;
  // Low-field Masetti mobility at the body doping; GAA wires see no
  // bulk-style vertical-field surface degradation.
  mu_ = physics::masetti_mobility(carrier, neff_);

  const double wires = spec_.width / (6.0 * r);
  weff_ = wires * 2.0 * M_PI * r;

  i0_ = calib_.k_io * 2.0 * n_ * mu_ * cox_ * vt_ * vt_ * weff_ / leff;
  vsat_len_ =
      2.0 * physics::saturation_velocity(carrier, spec_.temperature) * leff;
}

std::shared_ptr<const DeviceModel> NanowireFet::with_calibration(
    const Calibration& calib) const {
  return std::make_shared<NanowireFet>(spec_, calib);
}

double NanowireFet::vth_long() const {
  return vth0_ + vth_dop_ + calib_.delta_vth;
}

double NanowireFet::vth(double vds) const {
  // Quasi-2-D SCE/DIBL roll-off with the GAA natural length.
  const double dvth_sce = calib_.k_dibl * (2.0 * vbi_ + vds) * sce_;
  return vth0_ + vth_dop_ + calib_.delta_vth - dvth_sce;
}

double NanowireFet::gate_capacitance() const {
  // Cylindrical gate stack over the electrical width, same structural
  // split as bulk: channel area + overlap + fringe per gate edge.
  const double per_width =
      cox_ * spec_.geometry.lpoly +
      2.0 * (cox_ * spec_.geometry.lov + calib_.c_fringe);
  return per_width * weff_;
}

double NanowireFet::drain_current(double vgs, double vds) const {
  return eval<false>(vgs, vds).id;
}

DeviceEval NanowireFet::evaluate(double vgs, double vds) const {
  return eval<true>(vgs, vds);
}

template <bool kDerivs>
DeviceEval NanowireFet::eval(double vgs, double vds) const {
  const double sign = (vds < 0.0) ? -1.0 : 1.0;
  const double vds_mag = std::abs(vds);

  double sf = 0.0;  // softplus slopes, derivative path only
  double sr = 0.0;
  const double vth_d = vth(vds_mag);
  const double two_nvt = 2.0 * n_ * vt_;
  const double xf = (vgs - vth_d) / two_nvt;
  const double xr = (vgs - vth_d - n_ * vds_mag) / two_nvt;
  const double qf = softplus(xf, kDerivs ? &sf : nullptr);
  const double qr = softplus(xr, kDerivs ? &sr : nullptr);
  const double i_norm = qf * qf - qr * qr;

  const double vov_smooth = two_nvt * qf;
  const double denom = 1.0 + calib_.k_vsat * mu_ * vov_smooth / vsat_len_;

  const double id = sign * i0_ * i_norm / denom;
  if constexpr (!kDerivs) {
    return {id, 0.0, 0.0};
  } else {
    // Same chain rule as the bulk model, with a bias-independent
    // mobility: only i_norm and the overdrive in denom move.
    const double dibl = calib_.k_dibl * sce_;  // -dV_th/d|V_ds|
    const double dinorm_dvgs = 2.0 * (qf * sf - qr * sr) / two_nvt;
    const double dinorm_dvds =
        2.0 * (qf * sf * dibl - qr * sr * (dibl - n_)) / two_nvt;
    const double ddenom_dvgs = calib_.k_vsat * mu_ * sf / vsat_len_;
    const double f = i0_ * i_norm / denom;
    const double df_dvgs = (i0_ * dinorm_dvgs - f * ddenom_dvgs) / denom;
    const double df_dvds =
        (i0_ * dinorm_dvds - f * ddenom_dvgs * dibl) / denom;
    return {id, sign * df_dvgs, df_dvds};
  }
}

}  // namespace subscale::compact
