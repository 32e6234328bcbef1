#pragma once

/// \file supervth_strategy.h
/// The conventional, performance-driven device design flow of Fig. 1(c):
/// with (L_poly, T_ox, V_dd) fixed by the node, pick
///   * N_sub so the LONG-channel device (6x L_poly) sits exactly at the
///     leakage cap (halo doping is largely unnecessary at long
///     channels), then
///   * N_p,halo so the SHORT-channel device also sits at the cap — the
///     halo pulls the rolled-off V_th back up, which is the same thing as
///     enforcing -dV_th,SCE = dV_th,halo.
/// Minimum delay under the leakage constraint means the constraint is
/// active, so both searches solve I_off = I_leak,max.

#include <vector>

#include "compact/calibration.h"
#include "compact/device_spec.h"
#include "exec/policy.h"
#include "scaling/technology.h"

namespace subscale::scaling {

/// A designed device plus the report values of Table 2.
struct DesignedDevice {
  NodeInput node;
  compact::DeviceSpec spec;
  // Table-2-style report values:
  double nsub_cm3 = 0.0;
  double nhalo_net_cm3 = 0.0;  ///< N_sub + N_p,halo (the paper's N_halo)
  double vth_sat_mv = 0.0;     ///< constant-current extracted, at V_dd
  double ioff_pa_um = 0.0;     ///< at V_gs = 0, V_ds = V_dd
  double ss_mv_dec = 0.0;      ///< inverse subthreshold slope
  double tau_ps = 0.0;         ///< intrinsic delay C_g V_dd / I_on
};

struct SuperVthOptions {
  /// Card-level device environment: backend kind, temperature, wire
  /// radius. The default is the paper's bulk-at-300K setup (bitwise
  /// neutral); ScalingStudy passes its card's env here.
  compact::DeviceEnv env{};
  /// Roadmap fan-out: each node's design runs as its own task
  /// (deterministic — node designs are independent and pure).
  exec::ExecPolicy exec{};
};

/// Run Fig. 1(c) for one node.
DesignedDevice design_supervth_device(
    const NodeInput& node,
    const compact::Calibration& calib = compact::paper_calibration(),
    const SuperVthOptions& options = {});

/// The whole roadmap (Table 2 equivalent), 90nm -> 32nm.
std::vector<DesignedDevice> supervth_roadmap(
    const compact::Calibration& calib = compact::paper_calibration(),
    const SuperVthOptions& options = {});

/// The roadmap over an explicit node list (a technology card's resolved
/// nodes). The default-roadmap overload above is exactly this on
/// paper_nodes().
std::vector<DesignedDevice> supervth_roadmap(
    const std::vector<NodeInput>& nodes,
    const compact::Calibration& calib = compact::paper_calibration(),
    const SuperVthOptions& options = {});

}  // namespace subscale::scaling
