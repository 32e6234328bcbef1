#pragma once

/// \file query.h
/// The design-query wire schema, as value types: `serve::Query` (what a
/// client asks) and `serve::Result` (what comes back), plus their JSON
/// round-trip. This is the transport-agnostic core of the serving
/// layer: the long-lived daemon (serve/server.h), the one-shot
/// `subscale_query` CLI and the tests all build the SAME Query, run it
/// through the SAME Dispatcher, and render the SAME canonical JSON — so
/// the socket path and the batch path can never drift.
///
/// Wire schema (`subscale.query.v1`): one flat JSON object per request,
///   {"proto": "subscale.query.v1", "kind": "sweep", "card": "...",
///    "strategy": "supervth", "node": 0, "vd": 0.25, ...}
/// and one per response,
///   {"proto": "...", "id": "...", "ok": true, "kind": "sweep",
///    "result": {...}}
/// or, on failure,
///   {"proto": "...", "id": "...", "ok": false,
///    "error": {"code": "...", "message": "...", "detail": "..."}}.
/// Responses are canonical: io::JsonWriter, insertion-ordered keys,
/// %.17g doubles — two identical queries answered from the same cache
/// state produce byte-identical documents, which is what the serve
/// chaos smoke diffs across a daemon kill/restart and against the
/// one-shot CLI.
///
/// Versioning: `kProtocolVersion` names the schema. A request carrying
/// a different proto string is answered with a `bad_request` error (the
/// daemon never guesses at a schema it does not speak); bump the
/// version when the field set changes meaning. Withdrawing a kind does
/// not: its requests get the same `bad_request` ("unknown query kind")
/// as any kind the schema never had, and every field that remains means
/// what it meant.

#include <cstdint>
#include <string>
#include <vector>

#include "core/scaling_study.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "tcad/device_sim.h"
#include "tcad/extract.h"

namespace subscale::serve {

/// The wire-schema version string every request/response carries.
inline constexpr const char* kProtocolVersion = "subscale.query.v1";

/// What a query asks for.
enum class QueryKind {
  kSweep,    ///< device -> Id-Vg sweep + extracted metrics (TCAD)
  kDesign,   ///< (card, strategy, node) -> optimized design row
  kFigure,   ///< one metric across the card's nodes, as a series
  kMetrics,  ///< full structured telemetry export (non-perturbing)
};

/// Canonical lowercase kind name ("sweep", "design", "figure",
/// "metrics").
const char* query_kind_name(QueryKind kind);
/// Parse a kind name; false (out untouched) on an unknown one.
bool parse_query_kind(const std::string& name, QueryKind& out);

/// Structured protocol error: every failure a query can hit — a
/// malformed request, an unknown card path, the TCAD factory rejecting
/// a nanowire deck, a solver giving up — maps to one of these codes
/// instead of taking the daemon down. `message` is the stable
/// human-readable summary; `detail` carries the underlying exception
/// text when there is one.
struct Error {
  std::string code;
  std::string message;
  std::string detail;

  bool empty() const { return code.empty(); }
};

/// The closed set of error codes (wire-stable; clients switch on them).
namespace codes {
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kBadCard = "bad_card";
inline constexpr const char* kUnsupported = "unsupported";
inline constexpr const char* kSolverFailure = "solver_failure";
inline constexpr const char* kThrottled = "throttled";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kInternal = "internal";
}  // namespace codes

/// The figure metrics a kFigure query can chart across a card's nodes
/// (designed-device report values; x is always the node size in nm).
const std::vector<std::string>& figure_kinds();

/// One design-space query. Every field except `id` participates in the
/// query's content hash (cache/serve_keys.h), so two requests that pose
/// the same problem coalesce onto one solve regardless of who asks.
struct Query {
  QueryKind kind = QueryKind::kMetrics;
  std::string id;  ///< client correlation tag; echoed, never hashed
  std::string card = "paper_bulk_lstp";  ///< builtin id or card-file path
  core::Strategy strategy = core::Strategy::kSuperVth;
  std::size_t node = 0;  ///< index into the card's resolved node list
  // kSweep parameters (the TCAD gate sweep):
  double vd = 0.25;
  double vg_start = 0.0;
  double vg_stop = 0.45;
  std::size_t points = 10;
  /// Interactive-latency mesh preset (the orchestrator's --coarse-mesh
  /// spacings) instead of the full-resolution default.
  bool coarse_mesh = false;
  // kFigure parameter:
  std::string figure;  ///< one of figure_kinds()

  /// Throws std::invalid_argument naming the offending field (empty
  /// card, points < 2, vg_stop <= vg_start, unknown figure, ...).
  void validate() const;
};

/// kSweep payload: the converged curve and what extract.h read off it.
struct SweepPayload {
  std::string node_name;  ///< "90nm" ...
  double lpoly_nm = 0.0;  ///< designed gate length
  double vd = 0.0;
  std::vector<tcad::IdVgPoint> points;  ///< converged points only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool has_extraction = false;  ///< curve was extractable
  tcad::SweepExtraction extraction;
};

/// kDesign payload: one Table-2/Table-3 style report row.
struct DesignPayload {
  std::string node_name;
  double lpoly_nm = 0.0;
  double tox_nm = 0.0;
  double vdd = 0.0;
  double nsub_cm3 = 0.0;
  double nhalo_net_cm3 = 0.0;
  double vth_sat_mv = 0.0;
  double ioff_pa_um = 0.0;
  double ss_mv_dec = 0.0;
  double tau_ps = 0.0;
  bool subvth = false;  ///< the three fields below are meaningful
  double lpoly_opt_nm = 0.0;
  double energy_factor = 0.0;
  double delay_factor = 0.0;
};

/// kFigure payload: one metric across the card's nodes.
struct FigurePayload {
  std::string figure;
  std::string x_label;  ///< always "node_nm"
  std::string y_label;
  std::vector<double> x;
  std::vector<double> y;
};

/// kMetrics payload: the full structured telemetry export — the
/// dispatcher's live registry snapshot (every counter, gauge and
/// histogram with its buckets; percentiles are interpolated from the
/// buckets when rendering), plus the admission controller's state and
/// the profiler span rollup when those are wired.
/// Deliberately clock-free (no wall-time field) and gathered without
/// bumping any serve.* counter, so answering it does not perturb what
/// it reports — the same query against the daemon socket and against a
/// local Dispatcher sharing the registry renders byte-identical
/// documents (tests/test_serve.cpp pins this).
struct MetricsPayload {
  bool enabled = false;  ///< false: no registry wired; snapshot empty
  obs::MetricsSnapshot snapshot;
  bool has_admission = false;
  struct AdmissionState {
    std::uint64_t inflight = 0;
    std::uint64_t capacity = 0;  ///< configured queue_capacity
  } admission;
  bool has_profiler = false;
  struct ProfilerState {
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
    /// Largest total first. The wire carries label, count, total_ms and
    /// self_ms; a parsed row leaves the other fields zero.
    std::vector<obs::ProfileRollupRow> rollup;
  } profiler;
};

/// One query's outcome. Exactly one payload is meaningful, selected by
/// `kind`; `ok == false` means `error` is set instead.
struct Result {
  std::string id;  ///< echo of Query::id
  QueryKind kind = QueryKind::kMetrics;
  bool ok = false;
  Error error;
  // Provenance echo for sweep/design/figure results:
  std::string card;
  std::string strategy;
  std::size_t node = 0;
  SweepPayload sweep;
  DesignPayload design;
  FigurePayload figure;
  MetricsPayload metrics;
};

/// Render a request as one canonical `subscale.query.v1` JSON document.
std::string query_to_json(const Query& query);

/// Parse a request document. Returns false and fills `error` (always
/// code `bad_request`) on malformed JSON, a proto mismatch, an unknown
/// kind/strategy/figure, or a field that fails Query::validate(). On
/// success `out` carries defaults for every absent optional field.
bool parse_query(const std::string& text, Query& out, Error& error);

/// Render a response document (canonical bytes — see the file comment).
std::string result_to_json(const Result& result);

/// Parse a response document; false + reason on malformed input.
bool parse_result(const std::string& text, Result& out,
                  std::string* error = nullptr);

/// Convenience: the error-shaped Result for `query` (echoes id/kind).
Result error_result(const Query& query, const std::string& code,
                    const std::string& message,
                    const std::string& detail = {});

/// Render a metrics payload in the Prometheus text exposition format
/// (metric dots become underscores, a `subscale_` prefix, cumulative
/// `_bucket{le="..."}` rows with a closing `+Inf`, `_sum`/`_count`).
/// Pure function of the payload: the daemon path and the one-shot CLI
/// (`subscale_query --format prometheus`) render identical text from
/// identical payloads.
std::string metrics_to_prometheus(const MetricsPayload& payload);

}  // namespace subscale::serve
