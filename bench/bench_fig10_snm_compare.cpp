// Reproduction of Fig. 10: simulated inverter SNM under super-V_th vs
// sub-V_th scaling (at the paper's sub-V_th operating point). Paper: the
// sub-V_th strategy's SNM remains nearly constant with scaling and is
// 19 % larger than the super-V_th strategy's at the 32nm node.

#include <cmath>

#include "common.h"
#include "circuits/vtc.h"

using namespace subscale;

int main() {
  return bench::run(
      "fig10_snm_compare",
      "Fig. 10 — inverter SNM under both strategies (250 mV)",
      "sub-V_th SNM nearly constant; +19 % over super-V_th at 32nm",
      "double-digit SNM advantage at 32nm; sub-V_th SNM nearly flat",
      [](bench::Record& rec) {
  const double vdd = core::kVddSubthreshold;
  io::Series snm_super("snm_super"), snm_sub("snm_sub");
  io::TextTable t(
      {"node", "SNM super [mV]", "SNM sub [mV]", "sub advantage"});
  for (std::size_t i = 0; i < bench::study().node_count(); ++i) {
    const auto sup = circuits::noise_margins(bench::study().super_inverter(i, vdd));
    const auto sub = circuits::noise_margins(bench::study().sub_inverter(i, vdd));
    snm_super.add(bench::node_nm(i), sup.snm * 1e3);
    snm_sub.add(bench::node_nm(i), sub.snm * 1e3);
    t.add_row({bench::study().node(i).name, io::fmt(sup.snm * 1e3, 4),
               io::fmt(sub.snm * 1e3, 4),
               io::fmt_pct(sub.snm / sup.snm - 1.0, 1)});
  }
  std::printf("%s\n", t.render(2).c_str());

  const double gain_32 =
      snm_sub.points().back().y / snm_super.points().back().y - 1.0;
  const double sub_drift = std::abs(snm_sub.total_relative_change());
  std::printf("32nm advantage: %+.1f%% (paper +19%%)\n", gain_32 * 100.0);
  std::printf("sub-V_th SNM drift across nodes: %.1f%% (paper: nearly "
              "constant)\n",
              sub_drift * 100.0);

  rec.metric("snm_advantage_32nm_pct", gain_32 * 100.0);
  rec.metric("snm_sub_drift_pct", sub_drift * 100.0);
  return gain_32 > 0.10 && gain_32 < 0.35 && sub_drift < 0.08;
      });
}
