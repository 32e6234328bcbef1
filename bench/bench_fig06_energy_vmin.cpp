// Reproduction of Fig. 6: simulated energy per cycle and V_min for a
// chain of 30 inverters with activity 0.1, super-V_th roadmap, with the
// C_L S_S^2 factor overlaid. Paper: substantial energy reduction from
// 90nm to 32nm, V_min RISES by ~40 mV, and C_L S_S^2 tracks the
// simulated energy closely (validating Eq. 8).

#include <cmath>

#include "common.h"
#include "circuits/vmin.h"
#include "physics/units.h"
#include "scaling/subvth_strategy.h"

using namespace subscale;

int main() {
  return bench::run(
      "fig06_energy_vmin",
      "Fig. 6 — energy/cycle and V_min, 30-inverter chain, a=0.1",
      "energy falls 90->32nm; V_min rises ~40 mV; C_L S_S^2 tracks the "
      "energy",
      "energy falls, V_min rises tens of mV, C_L S_S^2 tracks measured "
      "energy within 30%",
      [](bench::Record& rec) {
  io::Series energy("energy_fJ"), vmin("vmin_mV"), factor("cl_ss2_norm");
  io::TextTable t({"node", "Vmin [mV]", "E/cycle [fJ]", "E_dyn [fJ]",
                   "E_leak [fJ]", "CL*SS^2 (norm)"});
  double factor0 = 0.0;
  double energy0 = 0.0;
  for (std::size_t i = 0; i < bench::study().node_count(); ++i) {
    const auto inv = bench::study().super_inverter(i, 0.3);
    const auto r = circuits::find_vmin(inv);
    const double f = scaling::energy_factor(
        bench::study().super_devices()[i].spec, bench::study().calibration());
    if (i == 0) {
      factor0 = f;
      energy0 = r.at_vmin.e_total;
    }
    energy.add(bench::node_nm(i), units::to_fJ(r.at_vmin.e_total));
    vmin.add(bench::node_nm(i), r.vmin * 1e3);
    factor.add(bench::node_nm(i), f / factor0);
    t.add_row({bench::study().node(i).name, io::fmt(r.vmin * 1e3, 4),
               io::fmt(units::to_fJ(r.at_vmin.e_total), 4),
               io::fmt(units::to_fJ(r.at_vmin.e_dynamic), 4),
               io::fmt(units::to_fJ(r.at_vmin.e_leakage), 4),
               io::fmt(f / factor0, 3)});
  }
  std::printf("%s\n", t.render(2).c_str());

  const double dvmin_mv =
      vmin.points().back().y - vmin.points().front().y;
  std::printf("V_min 90->32nm: %+.0f mV (paper: +40 mV)\n", dvmin_mv);
  std::printf("energy 90->32nm: %+.1f%%\n",
              energy.total_relative_change() * 100.0);

  // Eq. 8 check: the factor tracks the measured energy node by node.
  bool factor_tracks = true;
  for (std::size_t i = 0; i < 4; ++i) {
    const double measured =
        energy[i].y / units::to_fJ(energy0);
    if (std::abs(factor[i].y / measured - 1.0) > 0.30) factor_tracks = false;
  }

  rec.metric("vmin_rise_mv", dvmin_mv);
  rec.metric("energy_change_pct", energy.total_relative_change() * 100.0);

  // Newton effort per backward-Euler step of the V_min transients: the
  // budget tools/check.sh gates (circuits.tran.* counters, deterministic).
  if (const auto* reg = obs::default_registry(); reg != nullptr) {
    const auto snap = reg->snapshot();
    const double steps =
        static_cast<double>(snap.counter(obs::names::kTranSteps));
    const double iterations = static_cast<double>(
        snap.counter(obs::names::kTranNewtonIterations));
    const double per_step = steps > 0.0 ? iterations / steps : 0.0;
    std::printf("transient steps: %.0f, Newton iterations per step: %.3f\n",
                steps, per_step);
    rec.metric("tran_newton_per_step", per_step);
  }
  return energy.total_relative_change() < -0.25 && dvmin_mv > 10.0 &&
         dvmin_mv < 80.0 && factor_tracks;
      });
}
