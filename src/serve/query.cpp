#include "serve/query.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "io/json_parse.h"
#include "io/writer.h"

namespace subscale::serve {

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSweep:
      return "sweep";
    case QueryKind::kDesign:
      return "design";
    case QueryKind::kFigure:
      return "figure";
    case QueryKind::kMetrics:
      return "metrics";
  }
  return "metrics";
}

bool parse_query_kind(const std::string& name, QueryKind& out) {
  if (name == "sweep") {
    out = QueryKind::kSweep;
    return true;
  }
  if (name == "design") {
    out = QueryKind::kDesign;
    return true;
  }
  if (name == "figure") {
    out = QueryKind::kFigure;
    return true;
  }
  if (name == "metrics") {
    out = QueryKind::kMetrics;
    return true;
  }
  return false;
}

const std::vector<std::string>& figure_kinds() {
  static const std::vector<std::string> kinds = {"ss", "tau", "ioff", "vth",
                                                 "lpoly"};
  return kinds;
}

void Query::validate() const {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("Query: " + msg);
  };
  if (card.empty()) fail("card must not be empty");
  if (kind == QueryKind::kSweep) {
    if (points < 2) fail("points must be >= 2");
    if (!(vg_stop > vg_start)) fail("vg_stop must exceed vg_start");
    if (!(vd >= 0.0)) fail("vd must be non-negative");
  }
  if (kind == QueryKind::kFigure) {
    bool known = false;
    for (const std::string& f : figure_kinds()) known = known || f == figure;
    if (!known) {
      std::string names;
      for (const std::string& f : figure_kinds()) {
        if (!names.empty()) names += ", ";
        names += f;
      }
      fail("unknown figure '" + figure + "' (known: " + names + ")");
    }
  }
}

std::string query_to_json(const Query& query) {
  io::JsonWriter w;
  w.begin_object();
  w.key("proto");
  w.value(kProtocolVersion);
  w.key("kind");
  w.value(query_kind_name(query.kind));
  if (!query.id.empty()) {
    w.key("id");
    w.value(query.id);
  }
  if (query.kind != QueryKind::kMetrics) {
    w.key("card");
    w.value(query.card);
    w.key("strategy");
    w.value(core::strategy_name(query.strategy));
    w.key("node");
    w.value(static_cast<std::uint64_t>(query.node));
  }
  if (query.kind == QueryKind::kSweep) {
    w.key("vd");
    w.value(query.vd);
    w.key("vg_start");
    w.value(query.vg_start);
    w.key("vg_stop");
    w.value(query.vg_stop);
    w.key("points");
    w.value(static_cast<std::uint64_t>(query.points));
    w.key("coarse_mesh");
    w.value(query.coarse_mesh);
  }
  if (query.kind == QueryKind::kFigure) {
    w.key("figure");
    w.value(query.figure);
  }
  w.end_object();
  return w.str();
}

namespace {

bool fail_parse(Error& error, const std::string& message,
                const std::string& detail = {}) {
  error.code = codes::kBadRequest;
  error.message = message;
  error.detail = detail;
  return false;
}

}  // namespace

bool parse_query(const std::string& text, Query& out, Error& error) {
  std::string parse_error;
  const io::JsonPtr doc = io::json_parse(text, &parse_error);
  if (doc == nullptr) {
    return fail_parse(error, "malformed request JSON", parse_error);
  }
  if (doc->kind() != io::JsonValue::Kind::kObject) {
    return fail_parse(error, "request must be a JSON object");
  }
  const std::string proto = doc->string_at("proto");
  if (proto != kProtocolVersion) {
    return fail_parse(error,
                      std::string("unsupported protocol (expected ") +
                          kProtocolVersion + ")",
                      proto.empty() ? "missing proto field" : proto);
  }
  Query q;
  const std::string kind_name = doc->string_at("kind");
  if (!parse_query_kind(kind_name, q.kind)) {
    return fail_parse(error, "unknown query kind",
                      kind_name.empty() ? "missing kind field" : kind_name);
  }
  q.id = doc->string_at("id");
  q.card = doc->string_at("card", q.card);
  const std::string strategy = doc->string_at("strategy");
  if (!strategy.empty() && !core::parse_strategy(strategy, q.strategy)) {
    return fail_parse(error, "unknown strategy", strategy);
  }
  const double node = doc->number_at("node", 0.0);
  if (node < 0.0) return fail_parse(error, "node must be non-negative");
  q.node = static_cast<std::size_t>(node);
  q.vd = doc->number_at("vd", q.vd);
  q.vg_start = doc->number_at("vg_start", q.vg_start);
  q.vg_stop = doc->number_at("vg_stop", q.vg_stop);
  const double points =
      doc->number_at("points", static_cast<double>(q.points));
  if (points < 0.0) return fail_parse(error, "points must be non-negative");
  q.points = static_cast<std::size_t>(points);
  q.coarse_mesh = doc->bool_at("coarse_mesh", q.coarse_mesh);
  q.figure = doc->string_at("figure", q.figure);
  try {
    q.validate();
  } catch (const std::invalid_argument& e) {
    return fail_parse(error, "invalid query", e.what());
  }
  out = std::move(q);
  return true;
}

namespace {

void write_error(io::JsonWriter& w, const Error& error) {
  w.key("error");
  w.begin_object();
  w.key("code");
  w.value(error.code);
  w.key("message");
  w.value(error.message);
  w.key("detail");
  w.value(error.detail);
  w.end_object();
}

void write_sweep(io::JsonWriter& w, const SweepPayload& p) {
  w.key("node_name");
  w.value(p.node_name);
  w.key("lpoly_nm");
  w.value(p.lpoly_nm);
  w.key("vd");
  w.value(p.vd);
  w.key("vg");
  w.begin_array();
  for (const tcad::IdVgPoint& pt : p.points) w.value(pt.vg);
  w.end_array();
  w.key("id_a_per_m");
  w.begin_array();
  for (const tcad::IdVgPoint& pt : p.points) w.value(pt.id);
  w.end_array();
  w.key("attempted");
  w.value(static_cast<std::uint64_t>(p.attempted));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(p.failed));
  if (p.has_extraction) {
    w.key("extraction");
    w.begin_object();
    w.key("ss_mv_dec");
    w.value(p.extraction.ss * 1e3);
    w.key("vth_cc_v");
    w.value(p.extraction.vth_cc);
    w.key("ioff_a_per_m");
    w.value(p.extraction.ioff);
    w.key("ion_a_per_m");
    w.value(p.extraction.ion);
    w.key("ss_r2");
    w.value(p.extraction.ss_r2);
    w.end_object();
  }
}

void write_design(io::JsonWriter& w, const DesignPayload& p) {
  w.key("node_name");
  w.value(p.node_name);
  w.key("lpoly_nm");
  w.value(p.lpoly_nm);
  w.key("tox_nm");
  w.value(p.tox_nm);
  w.key("vdd");
  w.value(p.vdd);
  w.key("nsub_cm3");
  w.value(p.nsub_cm3);
  w.key("nhalo_net_cm3");
  w.value(p.nhalo_net_cm3);
  w.key("vth_sat_mv");
  w.value(p.vth_sat_mv);
  w.key("ioff_pa_um");
  w.value(p.ioff_pa_um);
  w.key("ss_mv_dec");
  w.value(p.ss_mv_dec);
  w.key("tau_ps");
  w.value(p.tau_ps);
  if (p.subvth) {
    w.key("lpoly_opt_nm");
    w.value(p.lpoly_opt_nm);
    w.key("energy_factor");
    w.value(p.energy_factor);
    w.key("delay_factor");
    w.value(p.delay_factor);
  }
}

void write_figure(io::JsonWriter& w, const FigurePayload& p) {
  w.key("figure");
  w.value(p.figure);
  w.key("x_label");
  w.value(p.x_label);
  w.key("y_label");
  w.value(p.y_label);
  w.key("x");
  w.begin_array();
  for (double v : p.x) w.value(v);
  w.end_array();
  w.key("y");
  w.begin_array();
  for (double v : p.y) w.value(v);
  w.end_array();
}

void write_metrics(io::JsonWriter& w, const MetricsPayload& p) {
  w.key("enabled");
  w.value(p.enabled);
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : p.snapshot.counters) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : p.snapshot.gauges) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const obs::MetricsSnapshot::HistogramValue& h : p.snapshot.histograms) {
    w.key(h.name);
    w.begin_object();
    w.key("count");
    w.value(h.count);
    w.key("sum");
    w.value(h.sum);
    // Finite upper bounds only; the overflow bucket is implied, so
    // "bucket" carries one more tally than "le" has bounds.
    w.key("le");
    w.begin_array();
    for (const auto& [bound, tally] : h.buckets) {
      if (!std::isinf(bound)) w.value(bound);
    }
    w.end_array();
    w.key("bucket");
    w.begin_array();
    for (const auto& [bound, tally] : h.buckets) w.value(tally);
    w.end_array();
    w.key("p50");
    w.value(h.percentile(50.0));
    w.key("p90");
    w.value(h.percentile(90.0));
    w.key("p99");
    w.value(h.percentile(99.0));
    w.end_object();
  }
  w.end_object();
  if (p.has_admission) {
    w.key("admission");
    w.begin_object();
    w.key("inflight");
    w.value(p.admission.inflight);
    w.key("capacity");
    w.value(p.admission.capacity);
    w.end_object();
  }
  if (p.has_profiler) {
    w.key("profiler");
    w.begin_object();
    w.key("spans");
    w.value(p.profiler.spans);
    w.key("dropped");
    w.value(p.profiler.dropped);
    w.key("rollup");
    w.begin_array();
    for (const auto& row : p.profiler.rollup) {
      w.begin_object();
      w.key("label");
      w.value(row.label);
      w.key("count");
      w.value(row.count);
      w.key("total_ms");
      w.value(row.total_ms);
      w.key("self_ms");
      w.value(row.self_ms);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
}

}  // namespace

std::string result_to_json(const Result& result) {
  io::JsonWriter w;
  w.begin_object();
  w.key("proto");
  w.value(kProtocolVersion);
  w.key("id");
  w.value(result.id);
  w.key("ok");
  w.value(result.ok);
  if (!result.ok) {
    write_error(w, result.error);
    w.end_object();
    return w.str();
  }
  w.key("kind");
  w.value(query_kind_name(result.kind));
  if (result.kind != QueryKind::kMetrics) {
    w.key("card");
    w.value(result.card);
    w.key("strategy");
    w.value(result.strategy);
    w.key("node");
    w.value(static_cast<std::uint64_t>(result.node));
  }
  w.key("result");
  w.begin_object();
  switch (result.kind) {
    case QueryKind::kSweep:
      write_sweep(w, result.sweep);
      break;
    case QueryKind::kDesign:
      write_design(w, result.design);
      break;
    case QueryKind::kFigure:
      write_figure(w, result.figure);
      break;
    case QueryKind::kMetrics:
      write_metrics(w, result.metrics);
      break;
  }
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

bool fail_result(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

bool parse_result(const std::string& text, Result& out, std::string* error) {
  std::string parse_error;
  const io::JsonPtr doc = io::json_parse(text, &parse_error);
  if (doc == nullptr) {
    return fail_result(error, "malformed response JSON: " + parse_error);
  }
  if (doc->kind() != io::JsonValue::Kind::kObject) {
    return fail_result(error, "response must be a JSON object");
  }
  Result r;
  r.id = doc->string_at("id");
  r.ok = doc->bool_at("ok", false);
  if (!r.ok) {
    const io::JsonPtr err = doc->get("error");
    if (err == nullptr) {
      return fail_result(error, "error response without error object");
    }
    r.error.code = err->string_at("code");
    r.error.message = err->string_at("message");
    r.error.detail = err->string_at("detail");
    out = std::move(r);
    return true;
  }
  if (!parse_query_kind(doc->string_at("kind"), r.kind)) {
    return fail_result(error, "response with unknown kind");
  }
  r.card = doc->string_at("card");
  r.strategy = doc->string_at("strategy");
  r.node = static_cast<std::size_t>(doc->number_at("node", 0.0));
  const io::JsonPtr body = doc->get("result");
  if (body == nullptr) {
    return fail_result(error, "ok response without result object");
  }
  switch (r.kind) {
    case QueryKind::kSweep: {
      r.sweep.node_name = body->string_at("node_name");
      r.sweep.lpoly_nm = body->number_at("lpoly_nm", 0.0);
      r.sweep.vd = body->number_at("vd", 0.0);
      const io::JsonPtr vg = body->get("vg");
      const io::JsonPtr id = body->get("id_a_per_m");
      if (vg == nullptr || id == nullptr || vg->size() != id->size()) {
        return fail_result(error, "sweep response with mismatched arrays");
      }
      for (std::size_t i = 0; i < vg->size(); ++i) {
        r.sweep.points.push_back(
            {vg->at(i)->as_number(), id->at(i)->as_number()});
      }
      r.sweep.attempted =
          static_cast<std::size_t>(body->number_at("attempted", 0.0));
      r.sweep.failed =
          static_cast<std::size_t>(body->number_at("failed", 0.0));
      if (const io::JsonPtr ex = body->get("extraction"); ex != nullptr) {
        r.sweep.has_extraction = true;
        r.sweep.extraction.ss = ex->number_at("ss_mv_dec", 0.0) * 1e-3;
        r.sweep.extraction.vth_cc = ex->number_at("vth_cc_v", 0.0);
        r.sweep.extraction.ioff = ex->number_at("ioff_a_per_m", 0.0);
        r.sweep.extraction.ion = ex->number_at("ion_a_per_m", 0.0);
        r.sweep.extraction.ss_r2 = ex->number_at("ss_r2", 0.0);
      }
      break;
    }
    case QueryKind::kDesign: {
      DesignPayload& d = r.design;
      d.node_name = body->string_at("node_name");
      d.lpoly_nm = body->number_at("lpoly_nm", 0.0);
      d.tox_nm = body->number_at("tox_nm", 0.0);
      d.vdd = body->number_at("vdd", 0.0);
      d.nsub_cm3 = body->number_at("nsub_cm3", 0.0);
      d.nhalo_net_cm3 = body->number_at("nhalo_net_cm3", 0.0);
      d.vth_sat_mv = body->number_at("vth_sat_mv", 0.0);
      d.ioff_pa_um = body->number_at("ioff_pa_um", 0.0);
      d.ss_mv_dec = body->number_at("ss_mv_dec", 0.0);
      d.tau_ps = body->number_at("tau_ps", 0.0);
      d.subvth = body->has("lpoly_opt_nm");
      d.lpoly_opt_nm = body->number_at("lpoly_opt_nm", 0.0);
      d.energy_factor = body->number_at("energy_factor", 0.0);
      d.delay_factor = body->number_at("delay_factor", 0.0);
      break;
    }
    case QueryKind::kFigure: {
      r.figure.figure = body->string_at("figure");
      r.figure.x_label = body->string_at("x_label");
      r.figure.y_label = body->string_at("y_label");
      const io::JsonPtr x = body->get("x");
      const io::JsonPtr y = body->get("y");
      if (x == nullptr || y == nullptr || x->size() != y->size()) {
        return fail_result(error, "figure response with mismatched arrays");
      }
      for (std::size_t i = 0; i < x->size(); ++i) {
        r.figure.x.push_back(x->at(i)->as_number());
        r.figure.y.push_back(y->at(i)->as_number());
      }
      break;
    }
    case QueryKind::kMetrics: {
      MetricsPayload& p = r.metrics;
      p.enabled = body->bool_at("enabled", false);
      if (const io::JsonPtr c = body->get("counters"); c != nullptr) {
        for (const auto& [name, value] : c->fields()) {
          p.snapshot.counters.emplace_back(
              name, static_cast<std::uint64_t>(value->as_number()));
        }
      }
      if (const io::JsonPtr g = body->get("gauges"); g != nullptr) {
        for (const auto& [name, value] : g->fields()) {
          p.snapshot.gauges.emplace_back(name, value->as_number());
        }
      }
      if (const io::JsonPtr hs = body->get("histograms"); hs != nullptr) {
        for (const auto& [name, hv] : hs->fields()) {
          obs::MetricsSnapshot::HistogramValue h;
          h.name = name;
          h.count = static_cast<std::uint64_t>(hv->number_at("count", 0.0));
          h.sum = hv->number_at("sum", 0.0);
          const io::JsonPtr le = hv->get("le");
          const io::JsonPtr bucket = hv->get("bucket");
          // "bucket" has one more tally than "le" has bounds: the
          // trailing overflow bucket carries the implied +Inf bound.
          if (le == nullptr || bucket == nullptr ||
              bucket->size() != le->size() + 1) {
            return fail_result(error,
                               "metrics histogram with mismatched buckets");
          }
          for (std::size_t i = 0; i < bucket->size(); ++i) {
            const double bound =
                i < le->size() ? le->at(i)->as_number()
                               : std::numeric_limits<double>::infinity();
            h.buckets.emplace_back(
                bound,
                static_cast<std::uint64_t>(bucket->at(i)->as_number()));
          }
          // p50/p90/p99 are not read back: they are a function of the
          // buckets, recomputed whenever the payload is rendered.
          p.snapshot.histograms.push_back(std::move(h));
        }
      }
      if (const io::JsonPtr a = body->get("admission"); a != nullptr) {
        p.has_admission = true;
        p.admission.inflight =
            static_cast<std::uint64_t>(a->number_at("inflight", 0.0));
        p.admission.capacity =
            static_cast<std::uint64_t>(a->number_at("capacity", 0.0));
      }
      if (const io::JsonPtr pr = body->get("profiler"); pr != nullptr) {
        p.has_profiler = true;
        p.profiler.spans =
            static_cast<std::uint64_t>(pr->number_at("spans", 0.0));
        p.profiler.dropped =
            static_cast<std::uint64_t>(pr->number_at("dropped", 0.0));
        if (const io::JsonPtr rows = pr->get("rollup"); rows != nullptr) {
          for (const io::JsonPtr& row : rows->items()) {
            obs::ProfileRollupRow rr;
            rr.label = row->string_at("label");
            rr.count =
                static_cast<std::uint64_t>(row->number_at("count", 0.0));
            rr.total_ms = row->number_at("total_ms", 0.0);
            rr.self_ms = row->number_at("self_ms", 0.0);
            p.profiler.rollup.push_back(std::move(rr));
          }
        }
      }
      break;
    }
  }
  out = std::move(r);
  return true;
}

namespace {

/// Prometheus metric name: dots become underscores under a subscale_
/// prefix ("serve.request_ms" -> "subscale_serve_request_ms").
std::string prom_name(const std::string& metric) {
  std::string out = "subscale_";
  for (const char c : metric) out += c == '.' ? '_' : c;
  return out;
}

/// %.17g like io::JsonWriter, so numbers are byte-stable and round-trip.
std::string prom_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Bucket bounds are short layout constants (0.1, 25, 1000); %g keeps
/// the le labels readable.
std::string prom_bound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

void prom_scalar(std::string& out, const std::string& name,
                 const char* type, const std::string& value) {
  out += "# TYPE " + name + " " + type + "\n";
  out += name + " " + value + "\n";
}

}  // namespace

std::string metrics_to_prometheus(const MetricsPayload& payload) {
  std::string out;
  for (const auto& [name, value] : payload.snapshot.counters) {
    prom_scalar(out, prom_name(name), "counter", std::to_string(value));
  }
  for (const auto& [name, value] : payload.snapshot.gauges) {
    prom_scalar(out, prom_name(name), "gauge", prom_value(value));
  }
  for (const obs::MetricsSnapshot::HistogramValue& h :
       payload.snapshot.histograms) {
    const std::string name = prom_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [bound, tally] : h.buckets) {
      cumulative += tally;
      const std::string le =
          std::isinf(bound) ? std::string("+Inf") : prom_bound(bound);
      out += name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + prom_value(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
    // Interpolated percentiles as plain gauges — non-standard next to
    // the bucket rows, but they let an operator read p99 straight off
    // the exposition without a query engine.
    prom_scalar(out, name + "_p50", "gauge", prom_value(h.percentile(50.0)));
    prom_scalar(out, name + "_p90", "gauge", prom_value(h.percentile(90.0)));
    prom_scalar(out, name + "_p99", "gauge", prom_value(h.percentile(99.0)));
  }
  if (payload.has_admission) {
    prom_scalar(out, "subscale_admission_inflight", "gauge",
                std::to_string(payload.admission.inflight));
    prom_scalar(out, "subscale_admission_capacity", "gauge",
                std::to_string(payload.admission.capacity));
  }
  if (payload.has_profiler) {
    prom_scalar(out, "subscale_profiler_spans", "counter",
                std::to_string(payload.profiler.spans));
    prom_scalar(out, "subscale_profiler_spans_dropped", "counter",
                std::to_string(payload.profiler.dropped));
  }
  return out;
}

Result error_result(const Query& query, const std::string& code,
                    const std::string& message, const std::string& detail) {
  Result r;
  r.id = query.id;
  r.kind = query.kind;
  r.ok = false;
  r.error.code = code;
  r.error.message = message;
  r.error.detail = detail;
  return r;
}

}  // namespace subscale::serve
