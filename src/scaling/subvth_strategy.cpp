#include "scaling/subvth_strategy.h"

#include <cmath>
#include <stdexcept>

#include "compact/device_model.h"
#include "compact/vth_model.h"
#include "exec/parallel.h"
#include "opt/bisection.h"
#include "opt/golden_section.h"
#include "physics/units.h"

namespace subscale::scaling {

namespace {

namespace u = subscale::units;

/// Drain bias of the I_off definition and the spec's default operating
/// scale [V].
constexpr double kVdsRef = 0.3;
/// The L_poly search spans [min, kLpolyMaxFactor x min].
constexpr double kLpolyMaxFactor = 3.5;

double ioff_at(const NodeInput& node, double lpoly_nm,
               const doping::MosfetDopingLevels& levels,
               const compact::Calibration& calib,
               const compact::DeviceEnv& env) {
  const compact::DeviceSpec spec =
      make_node_spec(node, lpoly_nm, levels, kVdsRef, env);
  return compact::make_device_model(spec, calib)->ioff();
}

}  // namespace

compact::DeviceSpec optimize_subvth_doping(const NodeInput& node,
                                           double lpoly_nm,
                                           const SubVthOptions& options,
                                           const compact::Calibration& calib) {
  const double ioff_target = u::pA_per_um(options.ioff_pa_um) * 1e-6;

  double ratio = 0.5;  // N_p,halo / N_sub split, refined by flatness
  doping::MosfetDopingLevels levels{.nsub = u::per_cm3(1.5e18),
                                    .np_halo = 0.0,
                                    .nsd = 1e26};

  for (std::size_t sweep = 0; sweep < options.split_iterations; ++sweep) {
    // (a) Overall scale from the I_off constraint at the current split.
    const auto leak_of_scale = [&](double nsub) {
      doping::MosfetDopingLevels trial = levels;
      trial.nsub = nsub;
      trial.np_halo = ratio * nsub;
      return std::log(ioff_at(node, lpoly_nm, trial, calib, options.env));
    };
    const auto scale_root = opt::solve_monotone_log(
        leak_of_scale, std::log(ioff_target), levels.nsub, u::per_cm3(3e16),
        u::per_cm3(8e19));
    if (!scale_root.converged) {
      throw std::runtime_error(
          "optimize_subvth_doping: I_off target unreachable");
    }
    levels.nsub = scale_root.x;
    levels.np_halo = ratio * levels.nsub;

    // (b) Split from the flat-roll-off condition dV_halo = dV_SCE. The
    // halo/SCE decomposition is a bulk concept (threshold_components
    // models a planar depletion charge); on a non-bulk backend the
    // electrostatics are gate-all-around and halos buy nothing, so the
    // co-optimization solves the I_off scale only with np_halo = 0.
    if (options.env.backend != compact::BackendKind::kBulkMosfet) {
      levels.np_halo = 0.0;
      ratio = 0.0;
      continue;
    }
    const auto flatness = [&](double np) {
      doping::MosfetDopingLevels trial = levels;
      trial.np_halo = np;
      const compact::DeviceSpec spec =
          make_node_spec(node, lpoly_nm, trial, kVdsRef, options.env);
      const auto c =
          compact::threshold_components(spec, calib, kVdsRef);
      return c.dvth_halo - c.dvth_sce;
    };
    if (flatness(0.0) < 0.0) {
      const double np_hi = 30.0 * levels.nsub;
      if (flatness(np_hi) > 0.0) {
        const auto split_root =
            opt::bisect(flatness, 0.0, np_hi, 1e-4 * levels.nsub, 200);
        levels.np_halo = split_root.x;
      } else {
        levels.np_halo = np_hi;  // saturate; next scale sweep compensates
      }
    } else {
      levels.np_halo = 0.0;
    }
    ratio = levels.np_halo / levels.nsub;
  }

  return make_node_spec(node, lpoly_nm, levels, kVdsRef, options.env);
}

namespace {

/// The circuit load C_L of Eqs. 6/8: device gate capacitance plus the
/// per-stage wire/junction load (which scales with the node's features,
/// not with the transistor's gate length).
double circuit_load(const compact::DeviceModel& fet,
                    const compact::Calibration& calib) {
  return fet.gate_capacitance() + calib.c_wire *
                                      fet.spec().geometry.feature_shrink *
                                      fet.spec().width;
}

}  // namespace

double energy_factor(const compact::DeviceSpec& spec,
                     const compact::Calibration& calib) {
  const auto fet = compact::make_device_model(spec, calib);
  const double ss = fet->subthreshold_swing();
  return circuit_load(*fet, calib) * ss * ss;
}

double delay_factor(const compact::DeviceSpec& spec,
                    const compact::Calibration& calib) {
  const auto fet = compact::make_device_model(spec, calib);
  return circuit_load(*fet, calib) * fet->subthreshold_swing() / fet->ioff();
}

SubVthDevice design_subvth_device(const NodeInput& node,
                                  const SubVthOptions& options,
                                  const compact::Calibration& calib) {
  const auto objective = [&](double lpoly_nm) {
    const compact::DeviceSpec spec =
        optimize_subvth_doping(node, lpoly_nm, options, calib);
    return energy_factor(spec, calib);
  };
  // The scan candidates are independent full doping co-optimizations —
  // the expensive part of the design — so fan them out; the golden
  // refinement that follows is sequential by nature.
  const opt::BatchObjective scan_batch = [&](const std::vector<double>& xs) {
    return exec::values_or_throw(exec::parallel_map<double>(
        xs.size(), [&](std::size_t i) { return objective(xs[i]); },
        options.exec));
  };
  const opt::ScalarMinimum best = opt::scan_then_golden(
      scan_batch, objective, node.lpoly_nm, kLpolyMaxFactor * node.lpoly_nm,
      options.lpoly_scan_points, 0.2 /* nm resolution */);

  SubVthDevice out;
  out.lpoly_opt_nm = best.x;
  out.device.node = node;
  out.device.spec = optimize_subvth_doping(node, best.x, options, calib);
  out.energy_factor_raw = energy_factor(out.device.spec, calib);
  out.delay_factor_raw = delay_factor(out.device.spec, calib);

  const auto fet = compact::make_device_model(out.device.spec, calib);
  out.device.nsub_cm3 = u::to_per_cm3(out.device.spec.levels.nsub);
  out.device.nhalo_net_cm3 = u::to_per_cm3(out.device.spec.levels.nsub +
                                           out.device.spec.levels.np_halo);
  out.device.vth_sat_mv = u::to_mV(fet->vth(kVdsRef));
  out.device.ioff_pa_um =
      u::to_pA_per_um(fet->ioff() / out.device.spec.width);
  out.device.ss_mv_dec = fet->subthreshold_swing() * 1e3;
  out.device.tau_ps = u::to_ps(fet->intrinsic_delay());
  return out;
}

std::vector<SubVthDevice> subvth_roadmap(const SubVthOptions& options,
                                         const compact::Calibration& calib) {
  const auto& nodes = paper_nodes();
  return subvth_roadmap(std::vector<NodeInput>(nodes.begin(), nodes.end()),
                        options, calib);
}

std::vector<SubVthDevice> subvth_roadmap(const std::vector<NodeInput>& nodes,
                                         const SubVthOptions& options,
                                         const compact::Calibration& calib) {
  return exec::values_or_throw(exec::parallel_map<SubVthDevice>(
      nodes.size(),
      [&](std::size_t i) {
        return design_subvth_device(nodes[i], options, calib);
      },
      options.exec));
}

}  // namespace subscale::scaling
