#include "serve/dispatcher.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/serve_keys.h"
#include "cards/technology_card.h"
#include "obs/names.h"
#include "tcad/solver_status.h"

namespace subscale::serve {

namespace {

/// Internal: an anticipated failure already classified to a wire code.
struct QueryError {
  std::string code;
  std::string message;
  std::string detail;
};

[[noreturn]] void fail(const std::string& code, const std::string& message,
                       const std::string& detail = {}) {
  throw QueryError{code, message, detail};
}

double node_nm(const scaling::NodeInput& node) {
  // "90nm" -> 90.0; matches bench::node_nm so figures chart the same x.
  return std::atof(node.name.c_str());
}

}  // namespace

void DispatcherOptions::validate() const { run.validate(); }

Dispatcher::Dispatcher(const DispatcherOptions& options) : options_(options) {
  options_.validate();
  if (obs::MetricsRegistry* reg = options_.run.sink(); reg != nullptr) {
    executed_ctr_ = &reg->counter(obs::names::kServeExecuted);
    coalesced_ctr_ = &reg->counter(obs::names::kServeCoalesced);
  }
}

const core::ScalingStudy& Dispatcher::study_for(const std::string& card) {
  std::lock_guard<std::mutex> lock(studies_mu_);
  auto it = studies_.find(card);
  if (it == studies_.end()) {
    cards::TechnologyCard resolved;
    try {
      resolved = cards::resolve_card(card);
    } catch (const std::exception& e) {
      fail(codes::kBadCard, "cannot resolve card '" + card + "'", e.what());
    }
    core::StudyOptions study_options;
    study_options.card = std::move(resolved);
    study_options.run = options_.run;
    it = studies_
             .emplace(card, std::make_unique<core::ScalingStudy>(
                                compact::paper_calibration(), study_options))
             .first;
  }
  return *it->second;
}

Result Dispatcher::dispatch(const Query& query) {
  // metrics is an observation, not work — coalescing it through the
  // in-flight table would let a follower receive a stale snapshot.
  if (query.kind == QueryKind::kMetrics) return compute(query);

  const cache::HashKey key = cache::query_key(query);
  std::promise<Result> promise;
  std::shared_future<Result> fut;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fut = it->second;
    } else {
      fut = promise.get_future().share();
      inflight_.emplace(key, fut);
      leader = true;
    }
  }
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    if (coalesced_ctr_ != nullptr) coalesced_ctr_->add();
    Result r = fut.get();
    r.id = query.id;  // each follower gets its own correlation tag back
    return r;
  }
  if (options_.compute_hook) options_.compute_hook(query);
  Result r = compute(query);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  promise.set_value(r);
  return r;
}

Result Dispatcher::compute(const Query& query) {
  // A metrics query observes the counters, so it must not be one:
  // bumping serve.executed here would make the export perturb itself
  // and break daemon-vs-CLI byte identity.
  if (query.kind != QueryKind::kMetrics) {
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (executed_ctr_ != nullptr) executed_ctr_->add();
  }
  try {
    query.validate();
    switch (query.kind) {
      case QueryKind::kSweep:
        return compute_sweep(query);
      case QueryKind::kDesign:
        return compute_design(query);
      case QueryKind::kFigure:
        return compute_figure(query);
      case QueryKind::kMetrics:
        return compute_metrics(query);
    }
    fail(codes::kBadRequest, "unknown query kind");
  } catch (const QueryError& e) {
    return error_result(query, e.code, e.message, e.detail);
  } catch (const tcad::SolverError& e) {
    return error_result(query, codes::kSolverFailure,
                        "solver failed on the requested problem", e.what());
  } catch (const std::invalid_argument& e) {
    return error_result(query, codes::kBadRequest, "invalid query",
                        e.what());
  } catch (const std::exception& e) {
    return error_result(query, codes::kInternal, "internal error", e.what());
  }
}

namespace {

/// The designed device backing (strategy, node) of a study, as the
/// common DesignedDevice view (+ the sub-V_th extras when applicable).
struct DesignView {
  const scaling::DesignedDevice* device = nullptr;
  const scaling::SubVthDevice* sub = nullptr;  ///< null for super-V_th
};

DesignView design_view(const core::ScalingStudy& study,
                       core::Strategy strategy, std::size_t node) {
  if (node >= study.node_count()) {
    fail(codes::kBadRequest,
         "node index out of range (card has " +
             std::to_string(study.node_count()) + " nodes)",
         "node " + std::to_string(node));
  }
  DesignView view;
  if (strategy == core::Strategy::kSubVth) {
    view.sub = &study.sub_devices()[node];
    view.device = &view.sub->device;
  } else {
    view.device = &study.super_devices()[node];
  }
  return view;
}

}  // namespace

Result Dispatcher::compute_sweep(const Query& query) {
  const core::ScalingStudy& study = study_for(query.card);
  const DesignView view = design_view(study, query.strategy, query.node);
  const compact::DeviceSpec& spec = view.device->spec;
  if (spec.backend != compact::BackendKind::kBulkMosfet) {
    fail(codes::kUnsupported,
         "TCAD sweeps are bulk-only (nanowire decks validate through the "
         "compact backend)",
         std::string("backend ") + compact::backend_kind_name(spec.backend));
  }
  const tcad::MeshOptions mesh =
      query.coarse_mesh ? tcad::kCoarseMesh : tcad::MeshOptions{};
  tcad::TcadDevice device(spec, mesh, {}, options_.run);
  const tcad::SweepResult sweep =
      device.id_vg(query.vd, query.vg_start, query.vg_stop, query.points);

  Result r;
  r.id = query.id;
  r.kind = QueryKind::kSweep;
  r.ok = true;
  r.card = query.card;
  r.strategy = core::strategy_name(query.strategy);
  r.node = query.node;
  r.sweep.node_name = view.device->node.name;
  r.sweep.lpoly_nm = spec.geometry.lpoly * 1e9;
  r.sweep.vd = query.vd;
  r.sweep.points = sweep.points;
  r.sweep.attempted = sweep.report.attempted;
  r.sweep.failed = sweep.report.failures.size();
  try {
    r.sweep.extraction = tcad::extract_from_sweep(sweep);
    r.sweep.has_extraction = true;
  } catch (const std::invalid_argument&) {
    r.sweep.has_extraction = false;  // too few points / non-positive currents
  }
  return r;
}

namespace {

DesignPayload design_payload(const DesignView& view) {
  const scaling::DesignedDevice& d = *view.device;
  DesignPayload p;
  p.node_name = d.node.name;
  p.lpoly_nm = d.spec.geometry.lpoly * 1e9;
  p.tox_nm = d.spec.geometry.tox * 1e9;
  p.vdd = d.spec.vdd;
  p.nsub_cm3 = d.nsub_cm3;
  p.nhalo_net_cm3 = d.nhalo_net_cm3;
  p.vth_sat_mv = d.vth_sat_mv;
  p.ioff_pa_um = d.ioff_pa_um;
  p.ss_mv_dec = d.ss_mv_dec;
  p.tau_ps = d.tau_ps;
  if (view.sub != nullptr) {
    p.subvth = true;
    p.lpoly_opt_nm = view.sub->lpoly_opt_nm;
    p.energy_factor = view.sub->energy_factor_raw;
    p.delay_factor = view.sub->delay_factor_raw;
  }
  return p;
}

}  // namespace

Result Dispatcher::compute_design(const Query& query) {
  const core::ScalingStudy& study = study_for(query.card);
  const DesignView view = design_view(study, query.strategy, query.node);

  Result r;
  r.id = query.id;
  r.kind = QueryKind::kDesign;
  r.ok = true;
  r.card = query.card;
  r.strategy = core::strategy_name(query.strategy);
  r.node = query.node;
  r.design = design_payload(view);
  return r;
}

Result Dispatcher::compute_figure(const Query& query) {
  const core::ScalingStudy& study = study_for(query.card);

  Result r;
  r.id = query.id;
  r.kind = QueryKind::kFigure;
  r.ok = true;
  r.card = query.card;
  r.strategy = core::strategy_name(query.strategy);
  r.node = 0;
  r.figure.figure = query.figure;
  r.figure.x_label = "node_nm";
  for (std::size_t i = 0; i < study.node_count(); ++i) {
    const DesignView view = design_view(study, query.strategy, i);
    const DesignPayload row = design_payload(view);
    r.figure.x.push_back(node_nm(view.device->node));
    double y = 0.0;
    if (query.figure == "ss") {
      y = row.ss_mv_dec;
      r.figure.y_label = "ss_mv_dec";
    } else if (query.figure == "tau") {
      y = row.tau_ps;
      r.figure.y_label = "tau_ps";
    } else if (query.figure == "ioff") {
      y = row.ioff_pa_um;
      r.figure.y_label = "ioff_pa_um";
    } else if (query.figure == "vth") {
      y = row.vth_sat_mv;
      r.figure.y_label = "vth_sat_mv";
    } else {  // "lpoly" (validate() rejected everything else)
      y = row.subvth ? row.lpoly_opt_nm : row.lpoly_nm;
      r.figure.y_label = "lpoly_nm";
    }
    r.figure.y.push_back(y);
  }
  return r;
}

Result Dispatcher::compute_metrics(const Query& query) {
  Result r;
  r.id = query.id;
  r.kind = QueryKind::kMetrics;
  r.ok = true;
  MetricsPayload& p = r.metrics;
  if (obs::MetricsRegistry* reg = options_.run.sink(); reg != nullptr) {
    p.enabled = true;
    p.snapshot = reg->snapshot();
  }
  if (options_.admission != nullptr) {
    const AdmissionController& a = *options_.admission;
    p.has_admission = true;
    p.admission.inflight = a.inflight();
    p.admission.capacity = a.options().queue_capacity;
  }
  if (obs::SpanProfiler* prof = options_.run.span_sink(); prof != nullptr) {
    const obs::ProfileSnapshot snap = prof->snapshot();
    p.has_profiler = true;
    p.profiler.spans = snap.spans.size();
    p.profiler.dropped = snap.dropped;
    p.profiler.rollup = snap.rollup();
  }
  return r;
}

}  // namespace subscale::serve
