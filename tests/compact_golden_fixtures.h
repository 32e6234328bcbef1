#pragma once

/// \file compact_golden_fixtures.h
/// The six compact golden fixtures, defined once for tools/golden_gen
/// (which writes tests/golden/<name>.json) and tests/test_golden (which
/// recomputes the values and compares them against those files). Each
/// fixture is a flat, ordered list of (key, value) pairs; golden_gen
/// writes them in list order, and test_golden requires the file's key
/// set to equal the list's.
///
///   table2_supervth   Table 2: the super-V_th roadmap's design rows
///   table3_subvth     Table 3: the sub-V_th roadmap's design rows and
///                     its raw energy and delay factors
///   fig02_ss_ionioff  Fig. 2: super-V_th S_S and log10(I_on/I_off)
///   fig09_lpoly_ss    Fig. 9: energy-optimal L_poly and its S_S
///   nanowire_idvg     compact backend #2: one fixed GAA device's
///                     swing, V_th, I_off and I_d-V_g
///   circuits_paper    Figs. 4/5/6/10/11/12 on both strategies' devices:
///                     SNM and FO1 t_p at 250 mV, the super-V_th FO1 t_p
///                     at nominal V_dd, and the chain's V_min and
///                     E/cycle, in SI units (V, s, J)

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cards/technology_card.h"
#include "circuits/delay.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "compact/device_model.h"
#include "compact/mosfet.h"
#include "core/scaling_study.h"
#include "physics/units.h"
#include "scaling/technology.h"

namespace subscale::golden {

using Values = std::vector<std::pair<std::string, double>>;

inline Values table2_supervth(const core::ScalingStudy& study) {
  Values out;
  for (const scaling::DesignedDevice& d : study.super_devices()) {
    const std::string n = d.node.name + ".";
    out.emplace_back(n + "lpoly_nm", d.node.lpoly_nm);
    out.emplace_back(n + "nsub_cm3", d.nsub_cm3);
    out.emplace_back(n + "nhalo_net_cm3", d.nhalo_net_cm3);
    out.emplace_back(n + "vth_sat_mv", d.vth_sat_mv);
    out.emplace_back(n + "ioff_pa_um", d.ioff_pa_um);
    out.emplace_back(n + "ss_mv_dec", d.ss_mv_dec);
    out.emplace_back(n + "tau_ps", d.tau_ps);
  }
  return out;
}

inline Values table3_subvth(const core::ScalingStudy& study) {
  Values out;
  for (const scaling::SubVthDevice& d : study.sub_devices()) {
    const std::string n = d.device.node.name + ".";
    out.emplace_back(n + "lpoly_opt_nm", d.lpoly_opt_nm);
    out.emplace_back(n + "nsub_cm3", d.device.nsub_cm3);
    out.emplace_back(n + "nhalo_net_cm3", d.device.nhalo_net_cm3);
    out.emplace_back(n + "vth_sat_mv", d.device.vth_sat_mv);
    out.emplace_back(n + "ioff_pa_um", d.device.ioff_pa_um);
    out.emplace_back(n + "ss_mv_dec", d.device.ss_mv_dec);
    out.emplace_back(n + "tau_ps", d.device.tau_ps);
    out.emplace_back(n + "energy_factor_raw", d.energy_factor_raw);
    out.emplace_back(n + "delay_factor_raw", d.delay_factor_raw);
  }
  return out;
}

inline Values fig02_ss_ionioff(const core::ScalingStudy& study) {
  Values out;
  for (const scaling::DesignedDevice& d : study.super_devices()) {
    const std::string n = d.node.name + ".";
    const compact::CompactMosfet fet(d.spec, study.calibration());
    const double ion = fet.drain_current(d.node.vdd, d.node.vdd);
    out.emplace_back(n + "ss_mv_dec", d.ss_mv_dec);
    out.emplace_back(n + "log10_ion_ioff", std::log10(ion / fet.ioff()));
  }
  return out;
}

inline Values fig09_lpoly_ss(const core::ScalingStudy& study) {
  Values out;
  for (const scaling::SubVthDevice& d : study.sub_devices()) {
    const std::string n = d.device.node.name + ".";
    out.emplace_back(n + "lpoly_opt_nm", d.lpoly_opt_nm);
    out.emplace_back(n + "ss_mv_dec", d.device.ss_mv_dec);
  }
  return out;
}

/// A directly constructed GAA device (the first paper node's geometry
/// at a fixed doping), so no design loop stands between the fixture and
/// the backend.
inline Values nanowire_idvg(const core::ScalingStudy& study) {
  namespace u = units;
  const scaling::NodeInput& node = scaling::paper_nodes()[0];
  doping::MosfetDopingLevels levels;
  levels.nsub = u::per_cm3(1e18);
  levels.np_halo = 0.0;
  const compact::DeviceSpec spec = scaling::make_node_spec(
      node, node.lpoly_nm, levels, node.vdd, cards::nanowire_gaa().env);
  const auto fet = compact::make_device_model(spec, study.calibration());
  Values out;
  out.emplace_back("ss_mv_dec", fet->subthreshold_swing() * 1e3);
  out.emplace_back("vth_sat_mv", fet->vth_sat_extracted() * 1e3);
  out.emplace_back("ioff_pa_um", u::to_pA_per_um(fet->ioff() / spec.width));
  for (int i = 0; i < 10; ++i) {
    const double vg = 0.05 * i;  // 0 .. 0.45 V
    out.emplace_back("log10_id." + std::to_string(i),
                     std::log10(fet->drain_current(vg, 0.25)));
  }
  return out;
}

/// find_vmin searches the supply, so its inverter's rail is immaterial.
inline Values circuits_paper(const core::ScalingStudy& study) {
  using core::Strategy;
  Values out;
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    for (const Strategy s : {Strategy::kSuperVth, Strategy::kSubVth}) {
      const bool sub = s == Strategy::kSubVth;
      const std::string n = std::string(core::strategy_name(s)) + "." +
                            study.node(i).name + ".";
      const circuits::InverterDevices inv =
          sub ? study.sub_inverter(i, core::kVddSubthreshold)
              : study.super_inverter(i, core::kVddSubthreshold);
      out.emplace_back(n + "snm_250mV", circuits::noise_margins(inv).snm);
      out.emplace_back(n + "tp_250mV", circuits::fo1_delay(inv).tp);
      if (!sub) {
        out.emplace_back(
            n + "tp_nominal",
            circuits::fo1_delay(inv.at_vdd(study.node(i).vdd)).tp);
      }
      const circuits::VminResult vmin = circuits::find_vmin(inv);
      out.emplace_back(n + "vmin", vmin.vmin);
      out.emplace_back(n + "e_vmin", vmin.at_vmin.e_total);
    }
  }
  return out;
}

struct CompactFixture {
  std::string name;  ///< tests/golden/<name>.json
  Values (*values)(const core::ScalingStudy& study);
};

/// Every compact fixture, in the order golden_gen writes them. Both
/// programs compute them on a default-constructed ScalingStudy.
inline std::vector<CompactFixture> compact_fixtures() {
  return {{"table2_supervth", &table2_supervth},
          {"table3_subvth", &table3_subvth},
          {"fig02_ss_ionioff", &fig02_ss_ionioff},
          {"fig09_lpoly_ss", &fig09_lpoly_ss},
          {"nanowire_idvg", &nanowire_idvg},
          {"circuits_paper", &circuits_paper}};
}

}  // namespace subscale::golden
