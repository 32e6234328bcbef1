#include "compact/mosfet.h"

#include <cmath>
#include <stdexcept>

#include "compact/ss_model.h"
#include "compact/vth_model.h"
#include "physics/constants.h"
#include "physics/mobility.h"
#include "physics/silicon.h"

namespace subscale::compact {

double softplus(double x, double* slope) {
  if (x > 40.0) {  // e^{-x} negligible
    if (slope != nullptr) *slope = 1.0;
    return x;
  }
  const double e = std::exp(x);
  if (x < -40.0) {
    if (slope != nullptr) *slope = e;
    return e;
  }
  if (slope != nullptr) *slope = e / (1.0 + e);
  return std::log1p(e);
}

CompactMosfet::CompactMosfet(DeviceSpec spec, const Calibration& calib)
    : DeviceModel(std::move(spec), calib) {
  // n_i(T) feeds every depletion and potential term below; evaluate it once.
  const double ni = physics::intrinsic_density_legacy(spec_.temperature);
  neff_ = spec_.effective_channel_doping(calib_.k_halo);
  wdep_ = depletion_width_at_threshold(neff_, spec_.temperature, ni);
  ss_ = compact::subthreshold_swing(neff_, spec_.geometry.tox,
                                    spec_.geometry.leff(), spec_.temperature,
                                    calib_, ni);
  n_ = slope_factor_from_swing(ss_, spec_.temperature);
  cox_ = physics::oxide_capacitance(spec_.geometry.tox);
  vt_ = physics::thermal_voltage(spec_.temperature);

  carrier_ = spec_.polarity == doping::Polarity::kNfet
                 ? physics::Carrier::kElectron
                 : physics::Carrier::kHole;
  vth_parts_ = threshold_components(spec_, calib_, 0.0, ni);
  q_dep_ = physics::depletion_charge(neff_, spec_.temperature, ni);
  mu0_ = physics::masetti_mobility(carrier_, neff_);
  i_scale_ = calib_.k_io * 2.0 * n_;
  const double leff = spec_.geometry.leff();
  w_over_l_ = spec_.width / leff;
  vsat_len_ =
      2.0 * physics::saturation_velocity(carrier_, spec_.temperature) * leff;
}

std::shared_ptr<const DeviceModel> CompactMosfet::with_calibration(
    const Calibration& calib) const {
  return std::make_shared<CompactMosfet>(spec_, calib);
}

double CompactMosfet::vth_long() const {
  // Long-channel limit: drop the SCE/DIBL roll-off term.
  return vth_parts_.vth_body + calib_.delta_vth;
}

double CompactMosfet::vth(double vds) const {
  return threshold_at(vth_parts_, calib_, vds);
}

double CompactMosfet::gate_capacitance() const {
  const double per_width = cox_ * spec_.geometry.lpoly +
                           2.0 * (cox_ * spec_.geometry.lov + calib_.c_fringe);
  return per_width * spec_.width;
}

double CompactMosfet::drain_current(double vgs, double vds) const {
  return eval<false>(vgs, vds).id;
}

DeviceEval CompactMosfet::evaluate(double vgs, double vds) const {
  return eval<true>(vgs, vds);
}

template <bool kDerivs>
DeviceEval CompactMosfet::eval(double vgs, double vds) const {
  const double sign = (vds < 0.0) ? -1.0 : 1.0;
  const double vds_mag = std::abs(vds);

  // Slopes of the three softplus terms and of the surface degradation,
  // filled on the derivative path only.
  double sf = 0.0;
  double sr = 0.0;
  double s0 = 0.0;
  double ddeg_de = 0.0;

  const double vth_d = vth(vds_mag);
  const double two_nvt = 2.0 * n_ * vt_;
  const double xf = (vgs - vth_d) / two_nvt;
  const double xr = (vgs - vth_d - n_ * vds_mag) / two_nvt;
  const double qf = softplus(xf, kDerivs ? &sf : nullptr);
  const double qr = softplus(xr, kDerivs ? &sr : nullptr);
  const double i_norm = qf * qf - qr * qr;

  // Effective mobility: Masetti at N_eff, degraded by the normal field
  // E_eff = (Q_dep + Q_inv/2)/eps_si. E_eff is constant in deep
  // subthreshold (Q_inv -> 0, so the measured log-slope equals the
  // analytical S_S) and rises in strong inversion.
  const double q_inv =
      cox_ * (two_nvt * softplus((vgs - vth_parts_.vth) / two_nvt,
                                 kDerivs ? &s0 : nullptr));
  const double e_eff = (q_dep_ + 0.5 * q_inv) / physics::kEpsSi;
  const double mu = mu0_ * physics::surface_degradation(
                                carrier_, e_eff, kDerivs ? &ddeg_de : nullptr);

  // Velocity saturation: degrade by the smooth overdrive (-> 0 in weak
  // inversion, -> Vov in strong inversion).
  const double vov_smooth = two_nvt * qf;
  const double denom = 1.0 + calib_.k_vsat * mu * vov_smooth / vsat_len_;

  // EKV specific current k_io 2 m mu C_ox vT^2 W/L_eff.
  const double i_spec = i_scale_ * mu * cox_ * vt_ * vt_ * w_over_l_;
  const double id = sign * i_spec * i_norm / denom;
  if constexpr (!kDerivs) {
    return {id, 0.0, 0.0};
  } else {
    // Chain rule on the magnitude f(vgs, |vds|) = i_spec i_norm / denom.
    // id = sign f is odd in vds, so g_ds = df/d|vds| on both sides.
    const double dibl =  // -dV_th/d|V_ds|
        calib_.k_dibl * vth_parts_.sce_attenuation;
    const double dinorm_dvgs = 2.0 * (qf * sf - qr * sr) / two_nvt;
    const double dinorm_dvds =
        2.0 * (qf * sf * dibl - qr * sr * (dibl - n_)) / two_nvt;
    const double dmu_dvgs =
        mu0_ * ddeg_de * 0.5 * cox_ * s0 / physics::kEpsSi;
    const double ddenom_dvgs =
        calib_.k_vsat * (dmu_dvgs * vov_smooth + mu * sf) / vsat_len_;
    const double ddenom_dvds = calib_.k_vsat * mu * sf * dibl / vsat_len_;
    const double f = i_spec * i_norm / denom;
    const double df_dvgs = (i_spec / mu * dmu_dvgs * i_norm +
                            i_spec * dinorm_dvgs - f * ddenom_dvgs) /
                           denom;
    const double df_dvds = (i_spec * dinorm_dvds - f * ddenom_dvds) / denom;
    return {id, sign * df_dvgs, df_dvds};
  }
}

}  // namespace subscale::compact
