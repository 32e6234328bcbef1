// Reproduction of Fig. 4: simulated inverter SNM at nominal V_dd and at
// V_dd = 250 mV across the super-V_th roadmap. Paper: the increase in
// S_S with scaling degrades the 250 mV SNM by more than 10 % between the
// 90nm and 32nm nodes.

#include "common.h"
#include "circuits/vtc.h"

using namespace subscale;

int main() {
  return bench::run(
      "fig04_snm", "Fig. 4 — inverter SNM, super-V_th scaling",
      ">10 % SNM degradation at 250 mV from 90nm to 32nm",
      "double-digit 250 mV SNM loss across the roadmap",
      [](bench::Record& rec) {
  io::Series snm_nom("snm_nominal"), snm_sub("snm_250mV");
  io::TextTable t({"node", "SNM @ Vdd,nom [mV]", "SNM @ 250mV [mV]",
                   "SNM/Vdd @ 250mV"});
  for (std::size_t i = 0; i < bench::study().node_count(); ++i) {
    const double vdd_nom = bench::study().node(i).vdd;
    const auto nm_nom =
        circuits::noise_margins(bench::study().super_inverter(i, vdd_nom));
    const auto nm_sub =
        circuits::noise_margins(bench::study().super_inverter(i, 0.25));
    snm_nom.add(bench::node_nm(i), nm_nom.snm * 1e3);
    snm_sub.add(bench::node_nm(i), nm_sub.snm * 1e3);
    t.add_row({bench::study().node(i).name, io::fmt(nm_nom.snm * 1e3, 4),
               io::fmt(nm_sub.snm * 1e3, 4),
               io::fmt_pct(nm_sub.snm / 0.25, 1)});
  }
  std::printf("%s\n", t.render(2).c_str());

  const double degradation = -snm_sub.total_relative_change();
  std::printf("250 mV SNM 90->32nm: %+.1f%% (paper: worse than -10%%)\n",
              -degradation * 100.0);
  rec.metric("snm_250mV_drop_pct", degradation * 100.0);

  // Newton effort per VTC solve: the headline tools/check.sh budgets. A
  // solver that silently fell back to bisection would need ~43 steps.
  if (const auto* reg = obs::default_registry(); reg != nullptr) {
    const auto snap = reg->snapshot();
    const double solves =
        static_cast<double>(snap.counter(obs::names::kVtcSolves));
    const double iterations = static_cast<double>(
        snap.counter(obs::names::kVtcNewtonIterations));
    const double per_solve = solves > 0.0 ? iterations / solves : 0.0;
    std::printf("VTC solves: %.0f, Newton iterations per solve: %.2f\n",
                solves, per_solve);
    rec.metric("vtc_newton_per_solve", per_solve);
  }

  return degradation > 0.08 && degradation < 0.35;
      });
}
