#pragma once

/// \file inverter.h
/// The CMOS inverter device pair used throughout the paper's circuit
/// experiments. The PFET mirrors the NFET's geometry and doping (the
/// paper derives PFET values analogously and finds nearly identical
/// optima); its width is up-sized to balance the weak-inversion currents
/// (the paper's Eq. 3 assumes I_o,N = I_o,P for a symmetric VTC).

#include <memory>

#include "compact/device_model.h"

namespace subscale::circuits {

/// Drain-junction self-loading of a stage, as a fraction of its gate and
/// wire load (the paper's FO1, chain and ring circuits all use it).
inline constexpr double kSelfLoadFactor = 0.5;

struct InverterDevices {
  std::shared_ptr<const compact::DeviceModel> nfet;
  std::shared_ptr<const compact::DeviceModel> pfet;
  double vdd = 0.0;  ///< operating rail for this instance [V]

  /// FO1 load: the gate capacitance of an identical inverter [F].
  double fanout_capacitance() const {
    return nfet->gate_capacitance() + pfet->gate_capacitance();
  }
  /// Per-stage wire/junction load from the calibration [F]. It scales
  /// with the node's feature shrink (wires scale with the process, not
  /// with the gate-length choice) and with the total driven gate width
  /// (wider stages mean longer local wires and bigger junctions). This
  /// makes the circuit C_L exactly proportional to the scaling module's
  /// analytical load C_g + c_wire*W, so circuit-level energy follows the
  /// paper's C_L*S_S^2 factor.
  double wire_capacitance() const {
    return nfet->calibration().c_wire *
           nfet->spec().geometry.feature_shrink *
           (nfet->spec().width + pfet->spec().width);
  }
  /// Total switched capacitance per stage: (FO1 gate load + wire load),
  /// plus drain-junction self-loading as a fraction of both.
  double stage_capacitance() const {
    return (1.0 + kSelfLoadFactor) *
           (fanout_capacitance() + wire_capacitance());
  }

  /// The same devices re-rated for a different supply (used by the V_min
  /// sweep; the device models themselves are bias-independent).
  InverterDevices at_vdd(double new_vdd) const;
};

/// Build a balanced inverter from an NFET spec: the PFET copies geometry
/// and doping, and its width is scaled by the weak-inversion N/P current
/// ratio so that I_o,N = I_o,P. Devices are built through
/// compact::make_device_model, so the spec's backend kind selects the
/// device physics (bulk MOSFET or nanowire GAA).
InverterDevices make_inverter(const compact::DeviceSpec& nfet_spec,
                              const compact::Calibration& calib =
                                  compact::paper_calibration());

/// Static current drawn from the rail by one inverter with input held at
/// logic `input_high` [A] — the off-device's subthreshold leakage at the
/// given rail voltage.
double inverter_leakage(const InverterDevices& inv, bool input_high);

}  // namespace subscale::circuits
