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
    : calib_(calib) {
  options.run.validate();
  options.card.validate();
  nodes_ = options.card.resolved_nodes();
  super_options_ = {.env = options.card.env, .exec = options.run.exec};
  sub_options_ = {.ioff_pa_um = options.card.subvth_ioff_pa_um,
                  .env = options.card.env,
                  .exec = options.run.exec};
}

const std::vector<scaling::DesignedDevice>& ScalingStudy::super_devices()
    const {
  std::call_once(super_once_, [this] {
    super_ = scaling::supervth_roadmap(nodes_, calib_, super_options_);
  });
  return super_;
}

const std::vector<scaling::SubVthDevice>& ScalingStudy::sub_devices() const {
  std::call_once(sub_once_, [this] {
    sub_ = scaling::subvth_roadmap(nodes_, sub_options_, calib_);
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
  // state are per-task, nothing is shared across tasks).
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
