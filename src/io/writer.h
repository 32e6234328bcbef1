#pragma once

/// \file writer.h
/// One structured-document writer interface for every serialized
/// artifact the library emits: BENCH_<name>.json records, metrics
/// snapshots, and the figure-data CSV files all drive the same
/// event-based Writer (begin/end object, begin/end array, key, value)
/// instead of three hand-rolled fprintf paths.
///
/// Backends:
///   * JsonWriter — pretty-printed JSON with correct escaping; accepts
///     any document shape.
///   * CsvWriter  — accepts exactly the "column document" shape (one
///     object whose values are equal-length arrays of scalars) and
///     renders header + rows; anything else throws. This is the shape
///     write_series_document() produces, so CSV export and JSON export
///     of the same curves share one code path.
///
/// Writers are single-document and not thread-safe: build the document
/// on one thread, then str() it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/series.h"
#include "io/table.h"
#include "obs/metrics.h"

namespace subscale::io {

class Writer {
 public:
  virtual ~Writer() = default;

  virtual void begin_object() = 0;
  virtual void end_object() = 0;
  virtual void begin_array() = 0;
  virtual void end_array() = 0;
  /// Key of the next value inside an object.
  virtual void key(std::string_view k) = 0;
  virtual void value(double v) = 0;
  virtual void value(std::uint64_t v) = 0;
  virtual void value(bool v) = 0;
  virtual void value(std::string_view v) = 0;
  /// Guard against const char* binding to the bool overload.
  void value(const char* v) { value(std::string_view(v)); }

  /// The rendered document. Throws std::logic_error while containers
  /// are still open (unbalanced begin/end).
  virtual std::string str() const = 0;
};

/// JSON backend (2-space indent, stable key order = insertion order,
/// %.17g doubles so values round-trip bit-exactly).
class JsonWriter : public Writer {
 public:
  void begin_object() override;
  void end_object() override;
  void begin_array() override;
  void end_array() override;
  void key(std::string_view k) override;
  void value(double v) override;
  void value(std::uint64_t v) override;
  void value(bool v) override;
  void value(std::string_view v) override;
  using Writer::value;  ///< keep the const char* guard visible
  std::string str() const override;

 private:
  void separate();  ///< comma/newline/indent before a new element
  void scalar(const std::string& text);

  std::string out_;
  /// One char per open container: 'o' object, 'a' array.
  std::string stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
};

/// CSV backend for column documents: {"x": [..], "curve": [..], ...}.
/// Columns must be equal-length arrays of scalars; nesting any deeper
/// (or writing a top-level scalar/array) throws std::invalid_argument.
class CsvWriter : public Writer {
 public:
  void begin_object() override;
  void end_object() override;
  void begin_array() override;
  void end_array() override;
  void key(std::string_view k) override;
  void value(double v) override;
  void value(std::uint64_t v) override;
  void value(bool v) override;
  void value(std::string_view v) override;
  using Writer::value;  ///< keep the const char* guard visible
  std::string str() const override;

 private:
  void cell(std::string text);

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> columns_;
  int depth_ = 0;       ///< 0 = outside, 1 = in object, 2 = in a column
  bool done_ = false;
};

/// Emit a set of curves sharing one x axis as a column document:
/// {"x": [...], "<name1>": [...], ...}. All series must have the exact
/// x values of the first one (throws std::invalid_argument otherwise —
/// same contract the old CSV path had).
void write_series_document(Writer& w, const std::vector<Series>& series);

/// Emit a metrics snapshot as one flat object: counters and gauges as
/// "name": value, histograms flattened to "name.count" / "name.sum"
/// (bucket tallies are diagnostic-level and stay out of the flat
/// schema). Key order is sorted-by-kind-then-name and deterministic;
/// `obs_trend schema` validates the keys of BENCH json against the
/// schema table (obs/names.h).
void write_metrics_snapshot(Writer& w, const obs::MetricsSnapshot& snap);

/// Emit a TextTable as {"headers": [...], "rows": [[...], ...]} so the
/// paper-vs-measured tables the benches print can also travel in
/// structured records.
void write_table_document(Writer& w, const TextTable& table);

}  // namespace subscale::io
