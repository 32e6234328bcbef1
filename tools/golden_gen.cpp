/// golden_gen: (re)generate the golden regression fixtures under
/// tests/golden/. Each fixture pins the headline values of one paper
/// table/figure as computed by the CURRENT code: Table 2 (super-V_th
/// roadmap), Table 3 (sub-V_th roadmap), Fig. 2 (S_S and Ion/Ioff
/// across nodes), Fig. 9 (energy-optimal L_poly and S_S across nodes),
/// and the circuit figures on both strategies' devices: the inverter
/// SNM and FO1 t_p at 250 mV (Figs. 4/5/10/11), the FO1 t_p at nominal
/// V_dd (super-V_th, Fig. 5), and the 30-inverter chain's V_min and
/// E/cycle there (Figs. 6/12).
/// tests/test_golden.cpp recomputes the same quantities and compares
/// against the fixtures with a tight relative tolerance — so any PR
/// that shifts the physics must regenerate the fixtures DELIBERATELY
/// and show the diff in review.
///
/// tcad_equivalence.json pins the TCAD stack itself: the equivalence
/// tier's three devices under its tight stops (currents at both tier
/// points, psi/n/p on the surface row and channel-centre column; see
/// tests/tcad_equivalence_fixture.h). tests/test_solver_equivalence.cpp
/// holds its Gummel snapshots against it at the tier's own bounds. It
/// runs six cold TCAD solves, so expect about half a minute.
///
///   ./golden_gen [output_dir]     # default: tests/golden
///
/// Values are written with %.17g (io::JsonWriter), so fixtures
/// round-trip doubles bit-exactly and the tolerance only absorbs
/// genuine numeric drift, not serialization.

#include <cmath>
#include <cstdio>
#include <filesystem>
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
#include "io/writer.h"
#include "physics/units.h"
#include "tcad_equivalence_fixture.h"

namespace {

using subscale::core::ScalingStudy;

void write_fixture(
    const std::string& dir, const std::string& name,
    const std::vector<std::pair<std::string, double>>& values) {
  subscale::io::JsonWriter w;
  w.begin_object();
  w.key("fixture");
  w.value(name);
  w.key("values");
  w.begin_object();
  for (const auto& [key, value] : values) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.end_object();

  const std::string path = dir + "/" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "golden_gen: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const std::string text = w.str();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("golden_gen: wrote %s (%zu values)\n", path.c_str(),
              values.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/golden";
  std::filesystem::create_directories(dir);

  const ScalingStudy study;  // default options — what test_golden uses
  const auto& calib = study.calibration();

  std::vector<std::pair<std::string, double>> table2;
  std::vector<std::pair<std::string, double>> fig02;
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    const auto& d = study.super_devices()[i];
    const std::string n = d.node.name + ".";
    table2.emplace_back(n + "lpoly_nm", d.node.lpoly_nm);
    table2.emplace_back(n + "nsub_cm3", d.nsub_cm3);
    table2.emplace_back(n + "nhalo_net_cm3", d.nhalo_net_cm3);
    table2.emplace_back(n + "vth_sat_mv", d.vth_sat_mv);
    table2.emplace_back(n + "ioff_pa_um", d.ioff_pa_um);
    table2.emplace_back(n + "ss_mv_dec", d.ss_mv_dec);
    table2.emplace_back(n + "tau_ps", d.tau_ps);

    const subscale::compact::CompactMosfet fet(d.spec, calib);
    const double ion = fet.drain_current(d.node.vdd, d.node.vdd);
    fig02.emplace_back(n + "ss_mv_dec", d.ss_mv_dec);
    fig02.emplace_back(n + "log10_ion_ioff",
                       std::log10(ion / fet.ioff()));
  }

  std::vector<std::pair<std::string, double>> table3;
  std::vector<std::pair<std::string, double>> fig09;
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    const auto& d = study.sub_devices()[i];
    const std::string n = d.device.node.name + ".";
    table3.emplace_back(n + "lpoly_opt_nm", d.lpoly_opt_nm);
    table3.emplace_back(n + "nsub_cm3", d.device.nsub_cm3);
    table3.emplace_back(n + "nhalo_net_cm3", d.device.nhalo_net_cm3);
    table3.emplace_back(n + "vth_sat_mv", d.device.vth_sat_mv);
    table3.emplace_back(n + "ioff_pa_um", d.device.ioff_pa_um);
    table3.emplace_back(n + "ss_mv_dec", d.device.ss_mv_dec);
    table3.emplace_back(n + "tau_ps", d.device.tau_ps);
    table3.emplace_back(n + "energy_factor_raw", d.energy_factor_raw);
    table3.emplace_back(n + "delay_factor_raw", d.delay_factor_raw);

    fig09.emplace_back(n + "lpoly_opt_nm", d.lpoly_opt_nm);
    fig09.emplace_back(n + "ss_mv_dec", d.device.ss_mv_dec);
  }

  // Nanowire backend fixture: Id–Vg + swing of one directly-constructed
  // GAA device (fixed node geometry and doping — no design loop in the
  // way), pinning compact backend #2 the same way table2 pins #1.
  std::vector<std::pair<std::string, double>> nanowire;
  {
    namespace u = subscale::units;
    const auto& card = subscale::cards::nanowire_gaa();
    const auto& node = subscale::scaling::paper_nodes()[0];
    subscale::doping::MosfetDopingLevels levels;
    levels.nsub = u::per_cm3(1e18);
    levels.np_halo = 0.0;
    const auto spec = subscale::scaling::make_node_spec(
        node, node.lpoly_nm, levels, node.vdd, card.env);
    const auto fet = subscale::compact::make_device_model(spec, calib);
    nanowire.emplace_back("ss_mv_dec", fet->subthreshold_swing() * 1e3);
    nanowire.emplace_back("vth_sat_mv", fet->vth_sat_extracted() * 1e3);
    nanowire.emplace_back("ioff_pa_um",
                          u::to_pA_per_um(fet->ioff() / spec.width));
    for (int i = 0; i < 10; ++i) {
      const double vg = 0.05 * i;  // 0 .. 0.45 V
      nanowire.emplace_back("log10_id." + std::to_string(i),
                            std::log10(fet->drain_current(vg, 0.25)));
    }
  }

  // Circuit figures, in SI units (V, s, J): per node and strategy, the
  // 250 mV SNM and FO1 t_p, the super-V_th FO1 t_p at nominal V_dd, and
  // the chain's V_min and E/cycle (find_vmin searches the supply, so its
  // inverter's rail is immaterial).
  std::vector<std::pair<std::string, double>> circuits;
  {
    namespace cc = subscale::circuits;
    using subscale::core::Strategy;
    const double vdd_sub = subscale::core::kVddSubthreshold;
    for (std::size_t i = 0; i < study.node_count(); ++i) {
      for (const Strategy s : {Strategy::kSuperVth, Strategy::kSubVth}) {
        const bool sub = s == Strategy::kSubVth;
        const std::string n = std::string(subscale::core::strategy_name(s)) +
                              "." + study.node(i).name + ".";
        const cc::InverterDevices inv = sub ? study.sub_inverter(i, vdd_sub)
                                            : study.super_inverter(i, vdd_sub);
        circuits.emplace_back(n + "snm_250mV", cc::noise_margins(inv).snm);
        circuits.emplace_back(n + "tp_250mV", cc::fo1_delay(inv).tp);
        if (!sub) {
          circuits.emplace_back(
              n + "tp_nominal",
              cc::fo1_delay(inv.at_vdd(study.node(i).vdd)).tp);
        }
        const cc::VminResult vmin = cc::find_vmin(inv);
        circuits.emplace_back(n + "vmin", vmin.vmin);
        circuits.emplace_back(n + "e_vmin", vmin.at_vmin.e_total);
      }
    }
  }

  write_fixture(dir, "table2_supervth", table2);
  write_fixture(dir, "table3_subvth", table3);
  write_fixture(dir, "fig02_ss_ionioff", fig02);
  write_fixture(dir, "fig09_lpoly_ss", fig09);
  write_fixture(dir, "nanowire_idvg", nanowire);
  write_fixture(dir, "circuits_paper", circuits);

  namespace eq = subscale::equivalence;
  std::vector<std::pair<std::string, double>> tcad;
  for (const eq::Fixture& f : eq::fixtures()) {
    const eq::Snapshot s = eq::snapshot_under(f.spec, eq::tight());
    for (auto& value : eq::fixture_values(f.name, s)) {
      tcad.push_back(std::move(value));
    }
  }
  write_fixture(dir, "tcad_equivalence", tcad);
  return 0;
}
