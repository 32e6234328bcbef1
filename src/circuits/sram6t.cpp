#include "circuits/sram6t.h"

#include <stdexcept>

#include "opt/bisection.h"

namespace subscale::circuits {

Sram6tCell make_sram_cell(const compact::DeviceSpec& nfet_spec,
                          double cell_ratio, double pullup_ratio,
                          const compact::Calibration& calib) {
  if (nfet_spec.polarity != doping::Polarity::kNfet) {
    throw std::invalid_argument("make_sram_cell: spec must be an NFET");
  }
  if (cell_ratio <= 0.0 || pullup_ratio <= 0.0) {
    throw std::invalid_argument("make_sram_cell: ratios must be positive");
  }
  Sram6tCell cell;
  cell.vdd = nfet_spec.vdd;

  compact::DeviceSpec access_spec = nfet_spec;  // unit-width access
  cell.access = compact::make_device_model(access_spec, calib);

  compact::DeviceSpec pd_spec = nfet_spec;
  pd_spec.width = nfet_spec.width * cell_ratio;
  cell.pull_down = compact::make_device_model(pd_spec, calib);

  // Balanced PFET (as in make_inverter) scaled by the pull-up ratio.
  const InverterDevices inv = make_inverter(pd_spec, calib);
  compact::DeviceSpec pu_spec = inv.pfet->spec();
  pu_spec.width *= pullup_ratio;
  cell.pull_up = compact::make_device_model(pu_spec, calib);
  return cell;
}

namespace {

/// Solve the storage-node voltage for a given opposite-node voltage,
/// Newton from `guess`. `with_access` includes the access NFET pulling
/// toward the bitline (at V_dd) with the wordline on.
double storage_node_voltage(const Sram6tCell& cell, double v_other,
                            bool with_access, double guess) {
  const double vdd = cell.vdd;
  const auto balance = [&](double vq) {
    // Pull-down NFET: gate at v_other, drain at vq.
    const compact::DeviceEval down = cell.pull_down->evaluate(v_other, vq);
    // Pull-up PFET: gate at v_other, source at vdd, drain at vq.
    const compact::DeviceEval up =
        cell.pull_up->evaluate(vdd - v_other, vdd - vq);
    opt::ValueSlope f{down.id - up.id, down.gds + up.gds};
    if (with_access) {
      // Access NFET: drain at bitline (vdd), source at the storage node,
      // gate at wordline (vdd). Current flows INTO the node; both its
      // V_gs and V_ds fall as vq rises.
      const compact::DeviceEval acc = cell.access->evaluate(vdd - vq, vdd - vq);
      f.value -= acc.id;
      f.slope += acc.gm + acc.gds;
    }
    return f;
  };
  // The balance is monotone increasing in vq. With the access device on,
  // the node can be pulled above the inverter's natural low level, but it
  // stays within [0, vdd].
  return opt::safeguarded_newton(balance, 0.0, vdd, 1e-12 * vdd, guess).x;
}

VtcCurve sample_vtc(const Sram6tCell& cell, bool with_access,
                    std::size_t points) {
  if (points < 2) {
    throw std::invalid_argument("sram vtc: need at least 2 points");
  }
  VtcCurve curve;
  curve.vin.resize(points);
  curve.vout.resize(points);
  double guess = 0.5 * cell.vdd;
  for (std::size_t i = 0; i < points; ++i) {
    const double v =
        cell.vdd * static_cast<double>(i) / static_cast<double>(points - 1);
    curve.vin[i] = v;
    curve.vout[i] = storage_node_voltage(cell, v, with_access, guess);
    guess = curve.vout[i];  // warm start along the sweep
  }
  return curve;
}

}  // namespace

VtcCurve sram_read_vtc(const Sram6tCell& cell, std::size_t points) {
  return sample_vtc(cell, /*with_access=*/true, points);
}

VtcCurve sram_hold_vtc(const Sram6tCell& cell, std::size_t points) {
  return sample_vtc(cell, /*with_access=*/false, points);
}

double sram_hold_snm(const Sram6tCell& cell) {
  const VtcCurve vtc = sram_hold_vtc(cell);
  return butterfly_snm(vtc, vtc);
}

double sram_read_snm(const Sram6tCell& cell) {
  const VtcCurve vtc = sram_read_vtc(cell);
  return butterfly_snm(vtc, vtc);
}

}  // namespace subscale::circuits
