// Cross-validation bench: the from-scratch 2-D drift-diffusion solver
// (the MEDICI substitute) against the calibrated compact model on the
// 90nm super-V_th device — subthreshold slope, leakage scale and DIBL
// sign. This is the "device-level behaviour" check behind Sec. 2.3.1.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common.h"
#include "compact/mosfet.h"
#include "exec/run_context.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "physics/units.h"
#include "tcad/device_sim.h"
#include "tcad/extract.h"

using namespace subscale;

int main() {
  return bench::run(
      "tcad_validation",
      "TCAD cross-validation — 2-D drift-diffusion vs compact",
      "MEDICI-class device simulation must agree with the calibrated "
      "analytical model on S_S and leakage scale",
      "S_S within 20%, clean exponential over >3 decades, positive DIBL",
      [](bench::Record& rec) {
  const auto spec = compact::make_spec_from_table(
      doping::Polarity::kNfet, 65, 2.10, 1.52e18, 3.63e18, 1.2, 1.0);
  const compact::CompactMosfet fet(spec);

  // Four budgets tools/check.sh gates over the sweep, from the deltas
  // of the bench registry's counters across id_vg, so the equilibrium,
  // the DIBL points and the cold solves below stay out of them: Poisson
  // Newton iterations, LDLᵀ factorizations and the band storage every
  // factorization covered per Gummel outer iteration, and the
  // continuity densities raised to the density floor.
  struct Effort {
    double newton = 0.0;
    double factorizations = 0.0;
    double outer = 0.0;
    double clamped = 0.0;
    double band_entries = 0.0;
  };
  const auto effort = [] {
    const obs::MetricsRegistry* reg = obs::default_registry();
    if (reg == nullptr) return Effort{};
    const obs::MetricsSnapshot snap = reg->snapshot();
    const auto count = [&snap](const char* name) {
      return static_cast<double>(snap.counter(name));
    };
    return Effort{count(obs::names::kPoissonNewtonIterations),
                  count(obs::names::kPoissonFactorizations),
                  count(obs::names::kGummelOuterIterations),
                  count(obs::names::kContinuityClampedNodes),
                  count(obs::names::kLinalgBandEntries)};
  };
  tcad::TcadDevice dev(spec);
  const Effort before = effort();
  const tcad::SweepResult sweep = dev.id_vg(0.25, 0.0, 0.45, 12);
  const Effort after = effort();
  const auto& resilience = sweep.report;
  std::printf("sweep resilience: %zu/%zu bias points converged\n",
              resilience.attempted - resilience.failures.size(),
              resilience.attempted);
  for (const auto& failed : resilience.failures) {
    std::printf("  skipped vg=%.3fV: %s\n", failed.vg,
                failed.report.summary().c_str());
  }
  std::size_t gummel_iters = 0;
  for (const auto& point : sweep.timings) {
    gummel_iters += point.gummel_iterations;
  }
  std::printf("solver effort: %zu Gummel outer iterations over %zu points\n",
              gummel_iters, sweep.timings.size());
  if (after.outer > before.outer) {  // zero when the sweep was replayed
    const double outer = after.outer - before.outer;
    const double newton_per_outer = (after.newton - before.newton) / outer;
    const double factorizations_per_outer =
        (after.factorizations - before.factorizations) / outer;
    const double band_entries_per_outer =
        (after.band_entries - before.band_entries) / outer;
    const double clamped = after.clamped - before.clamped;
    std::printf("Poisson Newton iterations per outer iteration: %.2f\n",
                newton_per_outer);
    std::printf("Poisson factorizations per outer iteration: %.2f\n",
                factorizations_per_outer);
    std::printf("band entries factored per outer iteration: %.0f\n",
                band_entries_per_outer);
    std::printf("continuity densities raised to the floor: %.0f\n",
                clamped);
    rec.metric("poisson_newton_per_outer", newton_per_outer);
    rec.metric("poisson_factorizations_per_outer", factorizations_per_outer);
    rec.metric("band_entries_per_outer", band_entries_per_outer);
    rec.metric("continuity_clamped_nodes", clamped);
  }
  const auto ex = tcad::extract_from_sweep(sweep);

  io::TextTable t({"quantity", "TCAD (2-D DD)", "compact (calibrated)"});
  t.add_row({"S_S [mV/dec]", io::fmt(ex.ss * 1e3, 4),
             io::fmt(fet.subthreshold_swing() * 1e3, 4)});
  t.add_row({"Ioff(0, 0.25V) [pA/um]",
             io::fmt(units::to_pA_per_um(ex.ioff), 4),
             io::fmt(units::to_pA_per_um(fet.drain_current(0.0, 0.25) /
                                         spec.width),
                     4)});
  t.add_row({"Id(0.45, 0.25V) [nA/um]",
             io::fmt(ex.ion * 1e9 * 1e-6, 4),
             io::fmt(fet.drain_current(0.45, 0.25) / spec.width * 1e3, 4)});
  std::printf("%s\n", t.render(2).c_str());

  // DIBL sign: more drain bias must raise the subthreshold current.
  const double i_lo = dev.id_at(0.1, 0.10);
  const double i_hi = dev.id_at(0.1, 0.50);
  std::printf("DIBL check: Id(vg=0.1) at vd=0.1 -> 0.5: %.3e -> %.3e A/m\n",
              i_lo, i_hi);

  const double ss_err = std::abs(ex.ss / fet.subthreshold_swing() - 1.0);
  const double decades =
      std::log10(sweep.points.back().id / sweep.points.front().id);
  std::printf("S_S agreement: %.1f%%; sweep spans %.1f decades\n",
              ss_err * 100.0, decades);
  rec.metric("ss_error_pct", ss_err * 100.0);
  rec.metric("sweep_decades", decades);
  rec.metric("gummel_outer_iterations", static_cast<double>(gummel_iters));

  // Cold-solve acceleration: plain Gummel ramp vs two-level mesh
  // continuation on the hard high-bias corners (full vdd on gate and
  // drain — the stiffest ramps the sweep machinery faces). Fresh
  // device + no_cache per measurement so every run pays the true cold
  // path; the equivalence tier (test_solver_equivalence) pins the two
  // configs to identical states, so this compares cost, not answers.
  const std::vector<std::pair<double, double>> hard_points = {
      {spec.vdd, spec.vdd}, {spec.vdd * 0.75, spec.vdd}};
  const auto cold_time = [&](const tcad::GummelOptions& options,
                             subscale::exec::RunContext& ctx) {
    double total = 0.0;
    for (const auto& [vg, vd] : hard_points) {
      try {
        tcad::TcadDevice cold(spec, {}, options, ctx);
        const auto t0 = std::chrono::steady_clock::now();
        const double id = cold.id_at(vg, vd);
        const auto t1 = std::chrono::steady_clock::now();
        if (!std::isfinite(id) || id <= 0.0) return -1.0;
        total += std::chrono::duration<double>(t1 - t0).count();
      } catch (const std::exception& e) {
        std::printf("  cold solve (vg=%.2f vd=%.2f) failed: %s\n", vg, vd,
                    e.what());
        return -1.0;
      }
    }
    return total;
  };

  obs::MetricsRegistry accel_reg;
  subscale::exec::RunContext base_ctx, accel_ctx;
  base_ctx.no_cache = true;
  accel_ctx.no_cache = true;
  accel_ctx.metrics = &accel_reg;

  // Same enlarged iteration budget on both sides (the default 60-outer
  // cap stalls at the full-vdd corner with or without continuation);
  // only the continuation levels differ, so the ratio isolates them.
  tcad::GummelOptions baseline;  // plain Gummel, no continuation
  baseline.max_iterations = 400;
  tcad::GummelOptions accel = baseline;
  accel.mesh_continuation_levels = 2;

  // Warm-up pass absorbs one-time costs (allocator, code paging), then
  // best-of-3 on each variant to shed scheduler noise.
  cold_time(baseline, base_ctx);
  cold_time(accel, accel_ctx);
  double t_base = 1e300, t_accel = 1e300;
  for (int r = 0; r < 3; ++r) {
    const double b = cold_time(baseline, base_ctx);
    const double a = cold_time(accel, accel_ctx);
    if (b < 0.0 || a < 0.0) {
      std::printf("cold-solve acceleration: solve FAILED\n");
      t_base = -1.0;
      break;
    }
    t_base = std::min(t_base, b);
    t_accel = std::min(t_accel, a);
  }
  const double cold_speedup = t_base > 0.0 ? t_base / t_accel : 0.0;
  std::printf(
      "cold-solve (hard high-bias, %zu points): gummel %.0f ms, "
      "meshcont2 %.0f ms -> %.2fx\n",
      hard_points.size(), t_base * 1e3, t_accel * 1e3, cold_speedup);
  std::printf(
      "  accel counters: meshcont levels=%llu prolongations=%llu "
      "fallbacks=%llu\n",
      static_cast<unsigned long long>(
          accel_reg.counter(obs::names::kMeshContLevels).value()),
      static_cast<unsigned long long>(
          accel_reg.counter(obs::names::kMeshContProlongations).value()),
      static_cast<unsigned long long>(
          accel_reg.counter(obs::names::kMeshContFallbacks).value()));
  rec.metric("cold_solve_ms_gummel", t_base * 1e3);
  rec.metric("cold_solve_ms_accel", t_accel * 1e3);
  rec.metric("cold_speedup", cold_speedup);

  return ss_err < 0.20 && i_hi > i_lo && decades > 3.0 &&
         ex.ss_r2 > 0.995 && resilience.all_converged() &&
         cold_speedup >= 3.0;
      });
}
