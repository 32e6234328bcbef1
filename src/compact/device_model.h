#pragma once

/// \file device_model.h
/// The compact device-backend interface the circuit and scaling layers
/// program against. A DeviceModel is a pure function of (DeviceSpec,
/// Calibration): all queries are const, thread-safe, and deterministic,
/// so models can be shared freely across circuits and threads.
///
/// Backends:
///   * CompactMosfet (compact/mosfet.h) — the paper's planar-bulk
///     all-region model; backend #1 and the default.
///   * NanowireFet (compact/nanowire.h) — cylindrical gate-all-around
///     nanowire FET, subthreshold-accurate; backend #2.
///
/// The virtual surface is the minimal query set the consumers actually
/// use (drain current and its conductances, S_S, slope factor, V_th,
/// gate capacitance) plus
/// `with_calibration` so variability's V_th-shift resampling works on
/// any backend. Derived figures (I_off, I_on, intrinsic delay, the
/// constant-current extracted V_th) are non-virtual conveniences defined
/// on top of the virtual queries — they compute exactly what the old
/// concrete CompactMosfet methods computed, arithmetic untouched.

#include <memory>

#include "compact/calibration.h"
#include "compact/device_spec.h"

namespace subscale::compact {

/// One bias point of a device: the drain current and its small-signal
/// conductances from a single analytic evaluation (DESIGN.md §18.2).
struct DeviceEval {
  double id = 0.0;   ///< drain current, bitwise drain_current(vgs, vds) [A]
  double gm = 0.0;   ///< transconductance dI_d/dV_gs [S]
  double gds = 0.0;  ///< output conductance dI_d/dV_ds [S]
};

class DeviceModel {
 public:
  virtual ~DeviceModel() = default;

  const DeviceSpec& spec() const { return spec_; }
  const Calibration& calibration() const { return calib_; }

  /// Which physics this model implements; matches spec().backend.
  virtual BackendKind backend() const = 0;
  /// Stable backend name for reports and cache-key metadata.
  const char* backend_name() const { return backend_kind_name(backend()); }

  // ---- virtual queries (the backend contract) -----------------------

  /// Drain current magnitude at (vgs, vds) [A]. Valid in all regions;
  /// antisymmetric in vds for small reverse bias.
  virtual double drain_current(double vgs, double vds) const = 0;
  /// Drain current plus its analytic gate and drain derivatives at
  /// (vgs, vds). `id` is bitwise drain_current(vgs, vds); at vds = 0 the
  /// derivatives are the (equal) one-sided limits.
  virtual DeviceEval evaluate(double vgs, double vds) const = 0;
  /// Inverse subthreshold slope S_S [V/dec].
  virtual double subthreshold_swing() const = 0;
  /// Subthreshold slope factor m = S_S/(vT ln 10).
  virtual double slope_factor() const = 0;
  /// Threshold magnitude at drain bias vds [V] (model parameter).
  virtual double vth(double vds) const = 0;
  /// Total gate capacitance [F] (scales with spec().width).
  virtual double gate_capacitance() const = 0;
  /// The same device under a different calibration (variability shifts
  /// delta_vth through this without knowing the concrete backend).
  virtual std::shared_ptr<const DeviceModel> with_calibration(
      const Calibration& calib) const = 0;

  // ---- derived figures (shared across backends) ---------------------

  /// Saturation threshold V_th(V_ds = V_dd) [V] (model parameter).
  double vth_sat() const { return vth(spec_.vdd); }
  /// Constant-current extracted threshold at V_ds = V_dd [V]: bisection
  /// for I_d(vgs, V_dd) = j_crit * W/L_eff (Table 2's V_th,sat column).
  double vth_sat_extracted() const;
  /// Off current I_off = I_d(0, V_dd) [A].
  double ioff() const { return drain_current(0.0, spec_.vdd); }
  /// On current I_on = I_d(V_dd, V_dd) [A].
  double ion() const { return drain_current(spec_.vdd, spec_.vdd); }
  /// On current at a reduced rail: I_d(v, v) [A] (the 250 mV points).
  double ion_at(double v) const { return drain_current(v, v); }
  /// Intrinsic delay C_g V_dd / I_on [s] (Table 2's figure of merit).
  double intrinsic_delay() const;

 protected:
  /// Validates the spec. Derived constructors compute their own cached
  /// quantities from the stored members.
  DeviceModel(DeviceSpec spec, const Calibration& calib);

  DeviceSpec spec_;
  Calibration calib_;
};

/// Construct the backend named by spec.backend. Counts one
/// cards.backend_dispatches on the process-default metrics registry.
/// Throws std::invalid_argument on a backend this build does not know.
std::shared_ptr<const DeviceModel> make_device_model(
    const DeviceSpec& spec,
    const Calibration& calib = paper_calibration());

}  // namespace subscale::compact
