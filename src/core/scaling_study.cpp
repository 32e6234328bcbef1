#include "core/scaling_study.h"

#include <stdexcept>

#include "exec/parallel.h"
#include "obs/names.h"
#include "obs/timer.h"

namespace subscale::core {

const char* strategy_name(Strategy strategy) {
  return strategy == Strategy::kSubVth ? "subvth" : "supervth";
}

bool parse_strategy(const std::string& name, Strategy& out) {
  if (name == "supervth") {
    out = Strategy::kSuperVth;
    return true;
  }
  if (name == "subvth") {
    out = Strategy::kSubVth;
    return true;
  }
  return false;
}

ScalingStudy::ScalingStudy(const compact::Calibration& calib,
                           const StudyOptions& options)
    : calib_(calib), options_(options) {
  options_.run.validate();
  options_.card.validate();
  nodes_ = options_.card.resolved_nodes();
  // Fold the card's device environment and leakage anchor into the
  // strategy layers still at their defaults (an explicit per-strategy
  // value keeps priority, mirroring the exec folding below). Note a
  // caller explicitly re-stating a default value is indistinguishable
  // from "unset" — defaults are the fold trigger by design.
  const auto is_default_env = [](const compact::DeviceEnv& e) {
    const compact::DeviceEnv d{};
    return e.backend == d.backend && e.temperature == d.temperature &&
           e.nw_radius_nm == d.nw_radius_nm;
  };
  if (is_default_env(options_.super.env)) {
    options_.super.env = options_.card.env;
  }
  if (is_default_env(options_.sub.env)) {
    options_.sub.env = options_.card.env;
  }
  if (options_.sub.ioff_pa_um == scaling::SubVthOptions{}.ioff_pa_um) {
    options_.sub.ioff_pa_um = options_.card.subvth_ioff_pa_um;
  }
  // Fold the study-wide thread count into the strategy layers that are
  // still on auto; an explicit per-strategy count keeps priority.
  if (options_.run.exec.threads != 0) {
    if (options_.super.exec.threads == 0) {
      options_.super.exec = options_.run.exec;
    }
    if (options_.sub.exec.threads == 0) {
      options_.sub.exec = options_.run.exec;
    }
  }
  // Same folding for the solve cache: a study-wide cache reaches the
  // design layer unless the caller already set one there. (TCAD
  // validation picks it up separately through TcadDevice's RunContext.)
  if (options_.run.cache != nullptr && options_.sub.cache == nullptr) {
    options_.sub.cache = options_.run.cache;
  }
}

const std::vector<scaling::DesignedDevice>& ScalingStudy::super_devices()
    const {
  std::call_once(super_once_, [this] {
    super_ = scaling::supervth_roadmap(nodes_, calib_, options_.super);
  });
  return super_;
}

const std::vector<scaling::SubVthDevice>& ScalingStudy::sub_devices() const {
  std::call_once(sub_once_, [this] {
    sub_ = scaling::subvth_roadmap(nodes_, options_.sub, calib_);
  });
  return sub_;
}

circuits::InverterDevices ScalingStudy::super_inverter(std::size_t i,
                                                       double vdd) const {
  if (i >= super_devices().size()) {
    throw std::out_of_range("ScalingStudy::super_inverter: bad node index");
  }
  return circuits::make_inverter(super_devices()[i].spec, calib_).at_vdd(vdd);
}

circuits::InverterDevices ScalingStudy::sub_inverter(std::size_t i,
                                                     double vdd) const {
  if (i >= sub_devices().size()) {
    throw std::out_of_range("ScalingStudy::sub_inverter: bad node index");
  }
  return circuits::make_inverter(sub_devices()[i].device.spec, calib_)
      .at_vdd(vdd);
}

std::vector<TcadNodeValidation> ScalingStudy::tcad_validation(
    const TcadValidationOptions& options) const {
  options.run.validate();
  const bool sub = options.strategy == Strategy::kSubVth;
  // Force the lazy roadmap before the fan-out so every task reads an
  // immutable cache (call_once makes even a racing first touch safe).
  const std::size_t n_nodes =
      sub ? sub_devices().size() : super_devices().size();

  std::vector<std::size_t> nodes = options.nodes;
  if (nodes.empty()) {
    for (std::size_t i = 0; i < n_nodes; ++i) nodes.push_back(i);
  }
  for (const std::size_t i : nodes) {
    if (i >= n_nodes) {
      throw std::out_of_range("ScalingStudy::tcad_validation: bad node index");
    }
  }

  // One task per node, each with its own TcadDevice (mesh + solver
  // state are per-task, nothing is shared across tasks). In strict
  // mode the solver exception escapes the task, is captured by the
  // runtime, and the lowest-index failure is rethrown below — the same
  // failure a serial strict run surfaces first.
  obs::MetricsRegistry* sink = options.run.sink();
  obs::SpanProfiler* prof = options.run.span_sink();
  const auto run_node = [&](std::size_t k) {
    const std::size_t i = nodes[k];
    const compact::DeviceSpec& spec =
        sub ? sub_devices()[i].device.spec : super_devices()[i].spec;
    TcadNodeValidation result;
    result.node = i;
    result.lpoly_nm = spec.geometry.lpoly * 1e9;
    const obs::ScopedSpan node_span(prof, obs::names::spans::kStudyNode);
    obs::ScopedTimer timer(sink, obs::names::kStudyNodeMs);
    try {
      tcad::TcadDevice device(spec, options.mesh, options.gummel,
                              options.run);
      tcad::SweepResult swept = device.id_vg(options.vd, options.vg_start,
                                             options.vg_stop, options.points);
      result.sweep = std::move(swept.points);
      result.report = std::move(swept.report);
      result.timings = std::move(swept.timings);
      if (sink != nullptr) {
        sink->counter(obs::names::kStudyNodesValidated).add(1);
        if (!result.report.failures.empty()) {
          sink->counter(obs::names::kStudySweepPointFailures)
              .add(result.report.failures.size());
        }
      }
    } catch (const std::exception& e) {
      if (options.run.strict) throw;
      // Aggressive nodes (32nm-class literal structures) can fail to
      // mesh or to reach equilibrium at all; record and move on.
      result.error = e.what();
      if (sink != nullptr) {
        sink->counter(obs::names::kStudyNodeErrors).add(1);
      }
    }
    return result;
  };

  return exec::values_or_throw(exec::parallel_map<TcadNodeValidation>(
      nodes.size(), run_node, options.run.exec, prof));
}

}  // namespace subscale::core
