#include "scaling/supervth_strategy.h"

#include <cmath>
#include <stdexcept>

#include "compact/device_model.h"
#include "exec/parallel.h"
#include "opt/bisection.h"
#include "physics/units.h"

namespace subscale::scaling {

namespace {

namespace u = subscale::units;

constexpr double kNsubLoCm3 = 5e16;  ///< doping search window
constexpr double kNsubHiCm3 = 5e19;
constexpr double kLongChannelFactor = 6.0;  ///< "long" device: this x L_poly

/// I_off [A] of the device assembled from the node + doping choice, with
/// the gate length overridden (long- vs short-channel probes).
double ioff_of(const NodeInput& node, double lpoly_nm, double nsub,
               double np_halo, const compact::Calibration& calib,
               const compact::DeviceEnv& env) {
  doping::MosfetDopingLevels levels;
  levels.nsub = nsub;
  levels.np_halo = np_halo;
  const compact::DeviceSpec spec =
      make_node_spec(node, lpoly_nm, levels, node.vdd, env);
  return compact::make_device_model(spec, calib)->ioff();
}

}  // namespace

DesignedDevice design_supervth_device(const NodeInput& node,
                                      const compact::Calibration& calib,
                                      const SuperVthOptions& options) {
  const double ioff_target = u::pA_per_um(node.ileak_max_pa_um) * 1e-6;

  // Step 1: substrate doping from the long-channel device (no halo).
  const double long_lpoly = kLongChannelFactor * node.lpoly_nm;
  const auto long_leak = [&](double nsub) {
    return std::log(ioff_of(node, long_lpoly, nsub, 0.0, calib, options.env));
  };
  const auto nsub_root = opt::solve_monotone_log(
      long_leak, std::log(ioff_target), u::per_cm3(1.5e18),
      u::per_cm3(kNsubLoCm3), u::per_cm3(kNsubHiCm3));
  if (!nsub_root.converged) {
    throw std::runtime_error(
        "design_supervth_device: long-channel leakage target unreachable");
  }
  const double nsub = nsub_root.x;

  // Step 2: halo doping from the short-channel device. If the minimum
  // device already meets the cap without halo, none is needed.
  double np_halo = 0.0;
  if (ioff_of(node, node.lpoly_nm, nsub, 0.0, calib, options.env) >
      ioff_target) {
    const auto short_leak = [&](double np) {
      return std::log(
          ioff_of(node, node.lpoly_nm, nsub, np, calib, options.env));
    };
    const auto np_root = opt::solve_monotone_log(
        short_leak, std::log(ioff_target), nsub, u::per_cm3(1e15),
        u::per_cm3(1e20));
    if (!np_root.converged) {
      throw std::runtime_error(
          "design_supervth_device: short-channel leakage target unreachable");
    }
    np_halo = np_root.x;
  }

  DesignedDevice out;
  out.node = node;
  doping::MosfetDopingLevels levels;
  levels.nsub = nsub;
  levels.np_halo = np_halo;
  out.spec = make_node_spec(node, node.lpoly_nm, levels, node.vdd,
                            options.env);

  const auto fet = compact::make_device_model(out.spec, calib);
  out.nsub_cm3 = u::to_per_cm3(nsub);
  out.nhalo_net_cm3 = u::to_per_cm3(nsub + np_halo);
  out.vth_sat_mv = u::to_mV(fet->vth_sat_extracted());
  out.ioff_pa_um = u::to_pA_per_um(fet->ioff() / out.spec.width);
  out.ss_mv_dec = fet->subthreshold_swing() * 1e3;
  out.tau_ps = u::to_ps(fet->intrinsic_delay());
  return out;
}

std::vector<DesignedDevice> supervth_roadmap(
    const compact::Calibration& calib, const SuperVthOptions& options) {
  const auto& nodes = paper_nodes();
  return supervth_roadmap(
      std::vector<NodeInput>(nodes.begin(), nodes.end()), calib, options);
}

std::vector<DesignedDevice> supervth_roadmap(
    const std::vector<NodeInput>& nodes, const compact::Calibration& calib,
    const SuperVthOptions& options) {
  return exec::values_or_throw(exec::parallel_map<DesignedDevice>(
      nodes.size(),
      [&](std::size_t i) {
        return design_supervth_device(nodes[i], calib, options);
      },
      options.exec));
}

}  // namespace subscale::scaling
