#include "orch/unit_runner.h"

#include <utility>

#include "cache/bytes.h"
#include "cache/solve_cache.h"
#include "io/writer.h"
#include "obs/names.h"
#include "tcad/solver_status.h"

namespace subscale::orch {

std::vector<std::uint8_t> encode_unit_result(const UnitResult& result) {
  cache::ByteWriter w;
  w.u32(kUnitResultVersion);
  w.u64(result.node);
  w.f64(result.lpoly_nm);
  w.str(result.error);
  w.u64(result.attempted);
  w.u64(result.points.size());
  for (const tcad::IdVgPoint& p : result.points) {
    w.f64(p.vg);
    w.f64(p.id);
  }
  w.u64(result.failures.size());
  for (const UnitFailure& f : result.failures) {
    w.f64(f.vg);
    w.f64(f.vd);
    w.str(f.stage);
    w.str(f.status);
  }
  return w.bytes();
}

bool decode_unit_result(const std::vector<std::uint8_t>& bytes,
                        UnitResult& out) {
  cache::ByteReader r(bytes);
  std::uint32_t version = 0;
  if (!r.u32(version) || version != kUnitResultVersion) return false;
  out = UnitResult{};
  std::uint64_t node = 0;
  std::uint64_t attempted = 0;
  if (!r.u64(node) || !r.f64(out.lpoly_nm) || !r.str(out.error) ||
      !r.u64(attempted)) {
    return false;
  }
  out.node = static_cast<std::size_t>(node);
  out.attempted = static_cast<std::size_t>(attempted);
  std::uint64_t count = 0;
  if (!r.u64(count) || count > bytes.size()) return false;
  out.points.resize(static_cast<std::size_t>(count));
  for (tcad::IdVgPoint& p : out.points) {
    if (!r.f64(p.vg) || !r.f64(p.id)) return false;
  }
  if (!r.u64(count) || count > bytes.size()) return false;
  out.failures.resize(static_cast<std::size_t>(count));
  for (UnitFailure& f : out.failures) {
    if (!r.f64(f.vg) || !r.f64(f.vd) || !r.str(f.stage) ||
        !r.str(f.status)) {
      return false;
    }
  }
  return r.exhausted();
}

UnitResult solve_unit(const core::ScalingStudy& study, const StudySpec& spec,
                      const WorkUnit& unit, const exec::RunContext& ctx,
                      const UnitPhaseHook& hook) {
  obs::SpanProfiler* prof = ctx.span_sink();
  const obs::ScopedSpan unit_span(prof, obs::names::spans::kOrchUnit);

  const compact::DeviceSpec& device_spec =
      unit.strategy == core::Strategy::kSubVth
          ? study.sub_devices()[unit.node].device.spec
          : study.super_devices()[unit.node].spec;

  UnitResult result;
  result.node = unit.node;
  result.lpoly_nm = device_spec.geometry.lpoly * 1e9;
  try {
    tcad::TcadDevice device(device_spec, spec.mesh, spec.gummel, ctx);
    if (hook) hook(UnitPhase::kAfterEquilibrium);
    tcad::SweepResult swept = device.id_vg(unit.vd, spec.vg_start,
                                           spec.vg_stop, spec.points);
    result.points = std::move(swept.points);
    result.attempted = swept.report.attempted;
    for (const tcad::FailedPoint& f : swept.report.failures) {
      UnitFailure reduced;
      reduced.vg = f.vg;
      reduced.vd = f.vd;
      reduced.stage = tcad::to_string(f.report.failed_stage);
      reduced.status = tcad::to_string(f.report.status);
      result.failures.push_back(std::move(reduced));
    }
  } catch (const std::exception& e) {
    // A node that cannot mesh or reach equilibrium is a *result* (the
    // serial study records it the same way), not a worker death.
    result.error = e.what();
  }
  if (hook) hook(UnitPhase::kAfterSolve);
  return result;
}

bool publish_unit_result(cache::SolveCache& cache, const WorkUnit& unit,
                         const UnitResult& result) {
  const std::uint64_t before = cache.stats().stores;
  cache.store(unit.result_key, cache::PayloadKind::kUnit,
              encode_unit_result(result));
  // store() is void (in-memory success is unconditional); for a
  // persistent cache, confirm the record actually landed on disk —
  // that is the publish the orchestrator polls for.
  if (!cache.persistent()) return cache.stats().stores > before;
  UnitResult check;
  return load_unit_result(cache, unit, check);
}

bool load_unit_result(cache::SolveCache& cache, const WorkUnit& unit,
                      UnitResult& out) {
  const std::shared_ptr<const cache::Payload> payload =
      cache.lookup(unit.result_key, cache::PayloadKind::kUnit);
  if (payload == nullptr) return false;
  return decode_unit_result(payload->bytes, out);
}

std::string study_result_json(const Manifest& manifest,
                              const std::vector<const UnitResult*>& results) {
  io::JsonWriter w;
  w.begin_object();
  w.key("manifest_version");
  w.value(static_cast<std::uint64_t>(manifest.version));
  w.key("units");
  w.begin_array();
  for (std::size_t i = 0; i < manifest.units.size(); ++i) {
    const WorkUnit& unit = manifest.units[i];
    const UnitResult* result = i < results.size() ? results[i] : nullptr;
    w.begin_object();
    w.key("index");
    w.value(static_cast<std::uint64_t>(unit.index));
    w.key("strategy");
    w.value(core::strategy_name(unit.strategy));
    w.key("node");
    w.value(static_cast<std::uint64_t>(unit.node));
    w.key("vd");
    w.value(unit.vd);
    w.key("result_key");
    w.value(unit.result_key.hex());
    if (result == nullptr) {
      w.key("poisoned");
      w.value(true);
    } else {
      w.key("lpoly_nm");
      w.value(result->lpoly_nm);
      if (!result->error.empty()) {
        w.key("error");
        w.value(result->error);
      }
      w.key("attempted");
      w.value(static_cast<std::uint64_t>(result->attempted));
      w.key("vg");
      w.begin_array();
      for (const tcad::IdVgPoint& p : result->points) w.value(p.vg);
      w.end_array();
      w.key("id");
      w.begin_array();
      for (const tcad::IdVgPoint& p : result->points) w.value(p.id);
      w.end_array();
      w.key("failures");
      w.begin_array();
      for (const UnitFailure& f : result->failures) {
        w.begin_object();
        w.key("vg");
        w.value(f.vg);
        w.key("vd");
        w.value(f.vd);
        w.key("stage");
        w.value(f.stage);
        w.key("status");
        w.value(f.status);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace subscale::orch
