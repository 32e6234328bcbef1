#pragma once

/// \file writer.h
/// The one structured-document writer for every JSON artifact the
/// library emits: BENCH_<name>.json records, metrics snapshots, perf
/// history lines, serve responses, cards, manifests and traces all
/// drive the same event-based JsonWriter (begin/end object, begin/end
/// array, key, value) instead of hand-rolled fprintf paths. Figure-data
/// CSV files are plain columns and have their own renderer (io/csv.h).
///
/// Writers are single-document and not thread-safe: build the document
/// on one thread, then str() it.

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace subscale::io {

/// Pretty-printed JSON with correct escaping (2-space indent, stable
/// key order = insertion order, %.17g doubles so values round-trip
/// bit-exactly; non-finite doubles render as null).
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Key of the next value inside an object.
  void key(std::string_view k);
  void value(double v);
  void value(std::uint64_t v);
  void value(bool v);
  void value(std::string_view v);
  /// Guard against const char* binding to the bool overload.
  void value(const char* v) { value(std::string_view(v)); }

  /// The rendered document. Throws std::logic_error while containers
  /// are still open (unbalanced begin/end).
  std::string str() const;

 private:
  void separate();  ///< comma/newline/indent before a new element
  void scalar(const std::string& text);

  std::string out_;
  /// One char per open container: 'o' object, 'a' array.
  std::string stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
};

/// Emit a metrics snapshot as one flat object: counters and gauges as
/// "name": value, histograms flattened to "name.count" / "name.sum"
/// (bucket tallies are diagnostic-level and stay out of the flat
/// schema). Key order is sorted-by-kind-then-name and deterministic;
/// `obs_trend schema` validates the keys of BENCH json against the
/// schema table (obs/names.h).
void write_metrics_snapshot(JsonWriter& w,
                            const obs::MetricsSnapshot& snap);

}  // namespace subscale::io
