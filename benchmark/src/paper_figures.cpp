// Workload `paper_figures`: one op is one full reproduction of the
// paper's circuit figures on a freshly designed roadmap — what a user
// pays every time they regenerate Figs. 4-8 and 10-12. Almost all of it
// is compact, circuits, opt and scaling work; tcad, cache and serve stay
// idle.

#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "cards/technology_card.h"
#include "circuits/delay.h"
#include "circuits/vmin.h"
#include "circuits/vtc.h"
#include "core/scaling_study.h"
#include "io/series.h"
#include "scaling/subvth_strategy.h"

namespace bench {

namespace {

using namespace subscale;

constexpr std::size_t kNodes = 4;
constexpr double kVddSub = 0.25;   // Figs. 4/5/10/11 sub-V_th supply
constexpr double kVddVmin = 0.3;   // Figs. 6/12 starting rail
constexpr std::size_t kDopingPoints = 9;  // Figs. 7/8: L_poly 32..96 nm

/// Every number one pass produces, in job order (not execution order),
/// so passes compare bitwise whatever order the seed ran them in.
struct PassValues {
  double snm[kNodes * 3];  // per node: super@vdd, super@0.25, sub@0.25
  double tp[kNodes * 3];   // same inverters
  double vmin[kNodes * 2];  // per node: super, sub @0.3 V
  double energy[kNodes * 2];
  double doping_efac[kDopingPoints];
  double doping_dfac[kDopingPoints];
  double super_efac[kNodes];  // Fig. 6 C_L S_S^2 overlay
};

enum class Job { kSnm, kDelay, kVmin, kDoping, kFactor };
struct JobRef {
  Job job;
  std::size_t index;
};

/// Time spent per job kind within one pass — the paper.share.* split.
struct PassSplit {
  double design_ms = 0.0;
  double snm_ms = 0.0;
  double delay_ms = 0.0;
  double vmin_ms = 0.0;
  double doping_ms = 0.0;
};

/// The pass's jobs in a seed-determined order.
std::vector<JobRef> shuffled_jobs(std::uint64_t seed, std::uint64_t pass) {
  std::vector<JobRef> jobs;
  for (std::size_t i = 0; i < kNodes * 3; ++i) jobs.push_back({Job::kSnm, i});
  for (std::size_t i = 0; i < kNodes * 3; ++i) {
    jobs.push_back({Job::kDelay, i});
  }
  for (std::size_t i = 0; i < kNodes * 2; ++i) jobs.push_back({Job::kVmin, i});
  for (std::size_t i = 0; i < kDopingPoints; ++i) {
    jobs.push_back({Job::kDoping, i});
  }
  for (std::size_t i = 0; i < kNodes; ++i) jobs.push_back({Job::kFactor, i});
  shuffle(jobs, seed, pass);
  return jobs;
}

core::StudyOptions study_options() {
  core::StudyOptions options;
  options.card = cards::paper_bulk_lstp();
  options.run.exec.threads = 4;
  options.run.no_cache = true;
  return options;
}

std::size_t node_index(const core::ScalingStudy& study, const char* name) {
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    if (study.node(i).name == name) return i;
  }
  throw std::runtime_error(std::string("paper card lacks node ") + name);
}

/// One full pass; returns its study for the compact probe. Throws on any
/// library failure.
std::unique_ptr<core::ScalingStudy> run_pass(Tracer& tracer,
                                             std::uint64_t seed,
                                             std::uint64_t pass,
                                             PassValues& v, PassSplit& split) {
  const Tracer::Scope pass_span = tracer.scope("bench.pass");
  auto t0 = Clock::now();
  auto study = std::make_unique<core::ScalingStudy>(
      compact::paper_calibration(), study_options());
  {
    const Tracer::Scope s = tracer.scope("bench.scaling.design");
    study->super_devices();
    study->sub_devices();
  }
  split.design_ms = ms_since(t0);
  if (study->node_count() != kNodes) {
    throw std::runtime_error("paper card must have 4 nodes");
  }
  const std::size_t n45 = node_index(*study, "45nm");

  const auto inverter = [&](std::size_t node, std::size_t variant) {
    return variant == 2 ? study->sub_inverter(node, kVddSub)
           : variant == 1 ? study->super_inverter(node, kVddSub)
                          : study->super_inverter(node, study->node(node).vdd);
  };
  for (const JobRef& job : shuffled_jobs(seed, pass)) {
    t0 = Clock::now();
    const std::size_t i = job.index;
    switch (job.job) {
      case Job::kSnm: {
        const auto inv = inverter(i / 3, i % 3);
        const Tracer::Scope s = tracer.scope("bench.circuits.noise_margins");
        v.snm[i] = circuits::noise_margins(inv).snm;
        split.snm_ms += ms_since(t0);
        break;
      }
      case Job::kDelay: {
        const auto inv = inverter(i / 3, i % 3);
        const Tracer::Scope s = tracer.scope("bench.circuits.fo1_delay");
        v.tp[i] = circuits::fo1_delay(inv).tp;
        split.delay_ms += ms_since(t0);
        break;
      }
      case Job::kVmin: {
        const auto inv = i % 2 == 0 ? study->super_inverter(i / 2, kVddVmin)
                                    : study->sub_inverter(i / 2, kVddVmin);
        const Tracer::Scope s = tracer.scope("bench.circuits.find_vmin");
        const circuits::VminResult r = circuits::find_vmin(inv);
        v.vmin[i] = r.vmin;
        v.energy[i] = r.at_vmin.e_total;
        split.vmin_ms += ms_since(t0);
        break;
      }
      case Job::kDoping: {
        const double lpoly = 32.0 + 8.0 * static_cast<double>(i);
        compact::DeviceSpec spec;
        {
          const Tracer::Scope s =
              tracer.scope("bench.scaling.optimize_subvth_doping");
          spec = scaling::optimize_subvth_doping(study->node(n45), lpoly, {},
                                                 study->calibration());
        }
        const Tracer::Scope s = tracer.scope("bench.scaling.factors");
        v.doping_efac[i] = scaling::energy_factor(spec, study->calibration());
        v.doping_dfac[i] = scaling::delay_factor(spec, study->calibration());
        split.doping_ms += ms_since(t0);
        break;
      }
      case Job::kFactor: {
        const Tracer::Scope s = tracer.scope("bench.scaling.factors");
        v.super_efac[i] = scaling::energy_factor(
            study->super_devices()[i].spec, study->calibration());
        split.doping_ms += ms_since(t0);
        break;
      }
    }
  }
  return study;
}

io::Series series(const char* name, const double* values, std::size_t stride,
                  std::size_t offset) {
  io::Series s(name);
  for (std::size_t i = 0; i < kNodes; ++i) {
    s.add(static_cast<double>(i), values[i * stride + offset]);
  }
  return s;
}

bool all_of(const std::vector<double>& ratios, bool (*pred)(double)) {
  for (const double r : ratios) {
    if (!pred(r)) return false;
  }
  return true;
}

/// The shape verdicts of bench_fig04/05/06/10/11/12, on one pass.
void check_shapes(const PassValues& v, Outcome& out) {
  const auto check = [&](bool ok, const char* what) {
    if (!ok) out.fail_check(std::string("shape: ") + what);
  };
  const io::Series snm_super_sub = series("snm_super_250", v.snm, 3, 1);
  const io::Series snm_sub = series("snm_sub_250", v.snm, 3, 2);
  const double fig04_drop = -snm_super_sub.total_relative_change();
  check(fig04_drop > 0.08 && fig04_drop < 0.35,
        "fig04 250 mV SNM loss 90->32nm within (8%, 35%)");

  const auto tp_nom = series("tp_nom", v.tp, 3, 0).consecutive_ratios();
  const auto tp_super_sub = series("tp_250", v.tp, 3, 1).consecutive_ratios();
  check(all_of(tp_nom, [](double r) { return r < 1.0 && r >= 0.70; }) &&
            all_of(tp_super_sub, [](double r) { return r >= 0.90; }),
        "fig05 nominal delay improves slowly, 250 mV delay nearly flat");

  const io::Series e_super = series("e_super", v.energy, 2, 0);
  const io::Series e_sub = series("e_sub", v.energy, 2, 1);
  const double dvmin_super_mv = (v.vmin[6] - v.vmin[0]) * 1e3;
  bool factor_tracks = true;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double measured = e_super[i].y / e_super[0].y;
    const double factor = v.super_efac[i] / v.super_efac[0];
    if (std::abs(factor / measured - 1.0) > 0.30) factor_tracks = false;
  }
  check(e_super.total_relative_change() < -0.25 && dvmin_super_mv > 10.0 &&
            dvmin_super_mv < 80.0 && factor_tracks,
        "fig06 energy falls, V_min rises, C_L S_S^2 tracks energy");

  const double gain_32 = snm_sub[3].y / snm_super_sub[3].y - 1.0;
  check(gain_32 > 0.10 && gain_32 < 0.35 &&
            std::abs(snm_sub.total_relative_change()) < 0.08,
        "fig10 sub-V_th SNM advantage at 32nm, sub SNM flat");

  const auto tp_sub = series("tp_sub", v.tp, 3, 2).consecutive_ratios();
  check(all_of(tp_sub, [](double r) { return r < 0.95; }),
        "fig11 sub-V_th delay falls every generation");

  const double saving_32 = 1.0 - e_sub[3].y / e_super[3].y;
  const double saving_65 = 1.0 - e_sub[1].y / e_super[1].y;
  const double dvmin_sub_mv = std::abs(v.vmin[7] - v.vmin[1]) * 1e3;
  check(saving_32 > 0.08 && dvmin_sub_mv < 20.0 && dvmin_super_mv > 10.0 &&
            saving_32 > saving_65,
        "fig12 sub-V_th energy saving grows, sub V_min flat");
}

/// compact.drain_current_ns_p50: DeviceModel::drain_current over the
/// pass's 16 devices on a fixed bias grid, one sample per device.
void probe_compact(Tracer& tracer, const core::ScalingStudy& study,
                   Outcome& out) {
  constexpr int kGrid = 6;
  constexpr int kRepeats = 8;
  double sink = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const circuits::InverterDevices invs[2] = {
        study.super_inverter(i, study.node(i).vdd),
        study.sub_inverter(i, kVddSub)};
    for (const auto& inv : invs) {
      for (const auto* model : {inv.nfet.get(), inv.pfet.get()}) {
        const auto t0 = Clock::now();
        for (int r = 0; r < kRepeats; ++r) {
          for (int a = 0; a < kGrid; ++a) {
            for (int b = 0; b < kGrid; ++b) {
              sink += model->drain_current(0.1 * a, 0.1 * b);
            }
          }
        }
        tracer.record("compact.drain_current",
                      ms_since(t0) * 1e6 / (kRepeats * kGrid * kGrid));
      }
    }
  }
  if (!std::isfinite(sink)) out.fail_check("compact probe: non-finite current");
}

}  // namespace

Outcome run_paper_figures(const Config& config) {
  Outcome out;
  EndToEnd e2e(HostProbe::Cpus::kEvery);  // the study pool spans the CPUs
  Tracer tracer(config.trace);

  // Set-up: a study designed on the paper card, ready for figure calls.
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    core::ScalingStudy study(compact::paper_calibration(), study_options());
    study.super_devices();
    study.sub_devices();
    e2e.setup_s.push_back(ms_since(t0) * 1e-3);
  };
  set_up();

  PassValues first{};
  bool have_first = false;
  std::vector<double> split_share[5];
  std::size_t traced_ops = 0;
  const std::size_t min_units = config.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units || ms_since(start) < config.seconds * 1e3; ++unit) {
    const bool traced = tracer.traced_unit(unit);
    e2e.probe.sample();
    PassValues v{};
    PassSplit split;
    std::unique_ptr<core::ScalingStudy> study;
    ++out.attempted;
    tracer.begin_unit(traced);
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      study = run_pass(tracer, config.seed, unit, v, split);
    } catch (const std::exception& e) {
      ok = false;
      out.fail_check(std::string("pass threw: ") + e.what());
    }
    const double pass_ms = ms_since(t0);
    tracer.end_unit();
    tracer.note_unit(traced, 1.0, pass_ms);
    if (!ok) {
      ++out.failed;
      continue;
    }
    if (!traced) {
      e2e.add_unit(1.0, pass_ms);
      set_up();
    } else {
      ++traced_ops;
      const double parts[5] = {split.design_ms, split.snm_ms, split.vmin_ms,
                               split.delay_ms, split.doping_ms};
      for (int k = 0; k < 5; ++k) {
        split_share[k].push_back(parts[k] / pass_ms * 100.0);
      }
      probe_compact(tracer, *study, out);
    }
    if (!have_first) {
      first = v;
      have_first = true;
      check_shapes(first, out);
    } else if (std::memcmp(&first, &v, sizeof v) != 0) {
      out.fail_check("pass " + std::to_string(unit) +
                     " differs bitwise from the first pass");
    }
  }

  if (!config.trace) {
    e2e.emit(out);
    return out;
  }
  const auto p50 = [&](const char* label) {
    return percentile(tracer.samples(label), 50.0);
  };
  out.metrics["scaling.design_ms"] = p50("bench.scaling.design");
  out.metrics["circuits.noise_margins_ms_p50"] =
      p50("bench.circuits.noise_margins");
  out.metrics["circuits.find_vmin_ms_p50"] = p50("bench.circuits.find_vmin");
  out.metrics["circuits.fo1_delay_ms_p50"] = p50("bench.circuits.fo1_delay");
  out.metrics["scaling.optimize_doping_ms_p50"] =
      p50("bench.scaling.optimize_subvth_doping");
  out.metrics["compact.drain_current_ns_p50"] = p50("compact.drain_current");
  const char* share_names[5] = {"paper.share.design", "paper.share.snm",
                                "paper.share.vmin", "paper.share.delay",
                                "paper.share.doping"};
  for (int k = 0; k < 5; ++k) {
    out.metrics[share_names[k]] = median(split_share[k]);
  }
  tracer.finish(static_cast<double>(traced_ops), config, "paper_figures",
                {"tcad.", "prof.", "cache.", "serve."}, out);
  return out;
}

}  // namespace bench
