#pragma once

/// \file vtc.h
/// Inverter voltage-transfer characteristic and static noise margins.
/// The VTC is obtained exactly as the paper's Eq. 3(a): by equating the
/// NFET and PFET drain currents at the output node (solved numerically,
/// which keeps the full model's DIBL and all-region behaviour instead of
/// the simplified closed form of Eq. 3(c)). SNM is defined at the
/// unity-gain points, matching the paper: "We define SNM at the points
/// where the gain in the voltage transfer characteristic equals -1."
///
/// Every output-node solve is a safeguarded Newton (opt::
/// safeguarded_newton) on the balance, whose slope g_ds,n + g_ds,p comes
/// from DeviceModel::evaluate; sweeps warm-start each solve from the
/// previous one. Each public call adds its solves and Newton iterations
/// to the default registry's circuits.vtc.* counters once. See DESIGN.md
/// §18.

#include <vector>

#include "circuits/inverter.h"

namespace subscale::circuits {

/// Output voltage of the inverter for a given input: the root of the
/// output-node current balance, which is strictly increasing in V_out,
/// to 1e-13 V_dd inside the [0, V_dd] bracket.
double vtc_output(const InverterDevices& inv, double vin);

/// Sampled VTC on a uniform input grid.
struct VtcCurve {
  std::vector<double> vin;
  std::vector<double> vout;
};
VtcCurve compute_vtc(const InverterDevices& inv, std::size_t points = 201);

/// Small-signal gain dVout/dVin at the given input, by the implicit
/// function theorem at the solved point:
/// -(g_m,n + g_m,p) / (g_ds,n + g_ds,p).
double vtc_gain(const InverterDevices& inv, double vin);

/// Noise-margin summary from the two unity-|gain| points: a 160-point
/// gain scan finds the switching point, then a bisection on gain + 1
/// (to 1e-9 V_dd) on each side of it.
struct NoiseMargins {
  double vil = 0.0;  ///< lower unity-gain input
  double vih = 0.0;  ///< upper unity-gain input
  double voh = 0.0;  ///< V_out(V_IL)
  double vol = 0.0;  ///< V_out(V_IH)
  double nml = 0.0;  ///< V_IL - V_OL
  double nmh = 0.0;  ///< V_OH - V_IH
  double snm = 0.0;  ///< min(nml, nmh)
  double peak_gain = 0.0;  ///< most negative gain (at the switching point)
};
NoiseMargins noise_margins(const InverterDevices& inv);

/// Seevinck rotated-axes butterfly SNM of two cross-coupled transfer
/// curves (used by the SRAM analysis; for a symmetric latch pass the same
/// curve twice). `forward` maps node A's input to its output; `mirrored`
/// maps node B's input to its output. Returns the side of the largest
/// square nested in the smaller eye [V].
double butterfly_snm(const VtcCurve& forward, const VtcCurve& mirrored);

}  // namespace subscale::circuits
