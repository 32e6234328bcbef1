#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/csv.h"
#include "io/json_parse.h"
#include "io/series.h"
#include "io/table.h"
#include "io/trace_export.h"
#include "io/writer.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace si = subscale::io;
namespace so = subscale::obs;

// ---- TextTable ------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  si::TextTable t({"node", "value"});
  t.add_row({"90nm", "1.3"});
  t.add_row({"32nm", "0.62"});
  const std::string out = t.render();
  // Header, underline, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("node"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("32nm"), std::string::npos);
}

TEST(TextTable, RowArityEnforced) {
  si::TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(si::TextTable({}), std::invalid_argument);
}

TEST(TextTable, IndentApplied) {
  si::TextTable t({"x"});
  t.add_row({"1"});
  const std::string out = t.render(4);
  EXPECT_EQ(out.substr(0, 4), "    ");
}

TEST(Format, Helpers) {
  EXPECT_EQ(si::fmt(1.2345, 3), "1.23");
  EXPECT_EQ(si::fmt_pct(0.23, 1), "23.0%");
  EXPECT_NE(si::fmt_sci(1.52e18).find("e+18"), std::string::npos);
}

// ---- Series -------------------------------------------------------------------------

TEST(Series, NormalizeToFirst) {
  si::Series s("delay");
  s.add(90, 2.0);
  s.add(65, 1.0);
  s.add(45, 0.5);
  const auto n = s.normalized_to_first();
  EXPECT_DOUBLE_EQ(n[0].y, 1.0);
  EXPECT_DOUBLE_EQ(n[2].y, 0.25);
}

TEST(Series, ConsecutiveRatios) {
  si::Series s("e");
  s.add(0, 4.0);
  s.add(1, 2.0);
  s.add(2, 1.0);
  const auto r = s.consecutive_ratios();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_DOUBLE_EQ(r[0], 0.5);
  EXPECT_DOUBLE_EQ(r[1], 0.5);
}

TEST(Series, TotalRelativeChange) {
  si::Series s("snm");
  s.add(90, 100.0);
  s.add(32, 89.0);
  EXPECT_NEAR(s.total_relative_change(), -0.11, 1e-12);
  si::Series single("x");
  single.add(0, 1.0);
  EXPECT_THROW(single.total_relative_change(), std::logic_error);
}

TEST(Series, MinMax) {
  si::Series s("v");
  s.add(0, 3.0);
  s.add(1, -2.0);
  s.add(2, 7.0);
  EXPECT_DOUBLE_EQ(s.y_min(), -2.0);
  EXPECT_DOUBLE_EQ(s.y_max(), 7.0);
  EXPECT_THROW(si::Series("empty").y_min(), std::logic_error);
}

// ---- CSV ------------------------------------------------------------------------------

TEST(Csv, RendersSharedAxis) {
  si::Series a("a"), b("b");
  a.add(1, 10);
  a.add(2, 20);
  b.add(1, -1);
  b.add(2, -2);
  const std::string csv = si::to_csv({a, b});
  EXPECT_EQ(csv, "x,a,b\n1,10,-1\n2,20,-2\n");
}

TEST(Csv, RejectsMismatchedAxes) {
  si::Series a("a"), b("b");
  a.add(1, 10);
  b.add(2, -1);
  EXPECT_THROW(si::to_csv({a, b}), std::invalid_argument);
  si::Series c("c");
  EXPECT_THROW(si::to_csv({a, c}), std::invalid_argument);
  EXPECT_THROW(si::to_csv({}), std::invalid_argument);
}

TEST(Csv, WritesFile) {
  si::Series a("a");
  a.add(1, 2);
  const std::string path = ::testing::TempDir() + "/subscale_csv_test.csv";
  si::write_csv_file(path, {a});
  std::ifstream file(path);
  std::stringstream buf;
  buf << file.rdbuf();
  EXPECT_EQ(buf.str(), "x,a\n1,2\n");
  std::remove(path.c_str());
}

TEST(Csv, NonFiniteCellsBecomeNull) {
  si::Series v("v");
  v.add(1, 1.5);
  v.add(2, std::numeric_limits<double>::quiet_NaN());
  v.add(3, std::numeric_limits<double>::infinity());
  v.add(4, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(si::to_csv({v}), "x,v\n1,1.5\n2,null\n3,null\n4,null\n");
}

// ---- Writer ---------------------------------------------------------------------------

TEST(JsonWriter, RendersNestedDocument) {
  si::JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(1.5);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{2});
  w.value(true);
  w.end_array();
  w.key("s");
  w.value("x\"y");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"a\": 1.5,\n  \"list\": [\n    2,\n    true\n  ],\n"
            "  \"s\": \"x\\\"y\"\n}\n");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  si::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[\n  null,\n  null\n]\n");
}

TEST(JsonWriter, RejectsMalformedDocuments) {
  si::JsonWriter open;
  open.begin_object();
  EXPECT_THROW(open.str(), std::logic_error);
  EXPECT_THROW(open.end_array(), std::logic_error);

  si::JsonWriter keyless;
  keyless.begin_array();
  EXPECT_THROW(keyless.key("k"), std::logic_error);
}

TEST(MetricsJson, FlatSnapshotSchema) {
  so::MetricsRegistry reg;
  reg.counter("tcad.gummel.solves").add(3);
  reg.gauge("tcad.gummel.last_residual").set(1e-8);
  reg.histogram("tcad.sweep.point_ms", so::buckets::kLatencyMs).record(2.0);

  si::JsonWriter w;
  si::write_metrics_snapshot(w, reg.snapshot());
  const std::string out = w.str();
  EXPECT_NE(out.find("\"tcad.gummel.solves\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"tcad.gummel.last_residual\": "), std::string::npos);
  EXPECT_NE(out.find("\"tcad.sweep.point_ms.count\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"tcad.sweep.point_ms.sum\": 2"), std::string::npos);
}

// ---- escaping and non-finite edge cases -----------------------------------

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  si::JsonWriter w;
  w.begin_object();
  w.key("q\"b\\c");
  w.value(std::string_view("line1\nline2\ttab\rcr \x01 bell\x07"));
  w.end_object();
  const std::string out = w.str();
  EXPECT_NE(out.find("\"q\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(out.find("line1\\nline2\\ttab\\rcr"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  EXPECT_NE(out.find("\\u0007"), std::string::npos);
  // No raw control bytes survive in the document.
  for (const char c : out) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control char in output";
  }
}

// ---- chrome trace export --------------------------------------------------

namespace {

/// A small two-thread-shaped snapshot built by hand.
subscale::obs::ProfileSnapshot sample_snapshot() {
  subscale::obs::ProfileSnapshot snap;
  snap.spans.push_back({"outer", 0, 0, 1, 0, 1000, 9000});
  snap.spans.push_back({"inner", 0, 1, 2, 1, 2000, 5000});
  snap.spans.push_back({"outer", 1, 0, 1, 0, 1500, 4500});
  return snap;
}

}  // namespace

TEST(TraceExport, EmitsCompleteEventsPerThreadTrack) {
  si::JsonWriter w;
  si::write_chrome_trace(w, sample_snapshot());
  const std::string out = w.str();
  EXPECT_NE(out.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"inner\""), std::string::npos);
  // Microsecond timestamps: 2000 ns -> 2 us; durations likewise.
  EXPECT_NE(out.find("\"ts\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"dur\": 3"), std::string::npos);
  // One track per recording thread.
  EXPECT_NE(out.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(out.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"droppedSpans\": 0"), std::string::npos);
  // Parent links travel in args for offline reconstruction.
  EXPECT_NE(out.find("\"parent\": 1"), std::string::npos);
}

TEST(TraceExport, RoundTripsThroughRealProfiler) {
  subscale::obs::SpanProfiler prof;
  {
    subscale::obs::ScopedSpan outer(&prof, "a");
    subscale::obs::ScopedSpan inner(&prof, "b");
  }
  si::JsonWriter w;
  si::write_chrome_trace(w, prof.snapshot());
  const std::string out = w.str();
  EXPECT_NE(out.find("\"name\": \"a\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"b\""), std::string::npos);
  EXPECT_NE(out.find("\"depth\": 1"), std::string::npos);
}

TEST(TraceExport, ConvergenceDocumentRendersNaNAsNull) {
  std::vector<subscale::obs::SolveTrajectory> solves(1);
  solves[0].vg = 0.25;
  solves[0].vd = 0.5;
  solves[0].converged = false;
  solves[0].samples.push_back({1, 0.125, 7, 1e23, 0.25});
  solves[0].samples.push_back(
      {2, 5e-4, 6, std::numeric_limits<double>::quiet_NaN(),
       std::numeric_limits<double>::quiet_NaN()});

  si::JsonWriter w;
  si::write_convergence_document(w, solves);
  const std::string out = w.str();
  EXPECT_NE(out.find("\"solves\": ["), std::string::npos);
  EXPECT_NE(out.find("\"vg\": 0.25"), std::string::npos);
  EXPECT_NE(out.find("\"converged\": false"), std::string::npos);
  EXPECT_NE(out.find("\"psi_update\": [\n        0.25,\n        null"),
            std::string::npos);
  EXPECT_NE(out.find("\"poisson_iterations\": [\n        7,\n        6"),
            std::string::npos);
}

// ---- JsonParse ------------------------------------------------------------------
//
// The reader side of the library's own JSON dialect (manifests, merged
// study outputs, BENCH records). The contract under test: full JSON
// acceptance, total accessors (wrong type / missing key -> fallback,
// never a throw), and hard rejection of malformed documents with an
// offset-bearing error instead of an exception.

TEST(JsonParse, ParsesScalarsAndContainers) {
  std::string error;
  si::JsonPtr v = si::json_parse(
      R"({"b": true, "n": -1.5e3, "s": "hi", "z": null,)"
      R"( "a": [1, 2, 3], "o": {"k": 4}})",
      &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_EQ(v->kind(), si::JsonValue::Kind::kObject);
  EXPECT_TRUE(v->bool_at("b", false));
  EXPECT_DOUBLE_EQ(v->number_at("n", 0.0), -1500.0);
  EXPECT_EQ(v->string_at("s"), "hi");
  EXPECT_TRUE(v->get("z")->is_null());
  ASSERT_EQ(v->get("a")->size(), 3u);
  EXPECT_DOUBLE_EQ(v->get("a")->at(1)->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(v->get("o")->number_at("k", 0.0), 4.0);
}

TEST(JsonParse, AccessorsAreTotalOnMismatch) {
  si::JsonPtr v = si::json_parse(R"({"s": "text", "n": 7})");
  ASSERT_NE(v, nullptr);
  // Wrong-type and missing-key reads fall back instead of throwing.
  EXPECT_DOUBLE_EQ(v->number_at("s", -1.0), -1.0);
  EXPECT_EQ(v->string_at("n", "fb"), "fb");
  EXPECT_EQ(v->get("absent"), nullptr);
  EXPECT_FALSE(v->has("absent"));
  EXPECT_EQ(v->at(0), nullptr);         // object, not array
  EXPECT_EQ(v->get("n")->at(99), nullptr);  // number, not array
}

TEST(JsonParse, WriterOutputRoundTripsBitExactDoubles) {
  // The writers emit %.17g; the parser holds doubles, so every value a
  // JsonWriter produces must read back bit-identical.
  const double samples[] = {0.0, 1.0 / 3.0, 6.5e-9, 1.7976931348623157e308,
                            -2.2250738585072014e-308, 42.0};
  si::JsonWriter w;
  w.begin_array();
  for (double d : samples) w.value(d);
  w.end_array();
  si::JsonPtr v = si::json_parse(w.str());
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->size(), std::size(samples));
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    EXPECT_EQ(v->at(i)->as_number(), samples[i]) << "sample " << i;
  }
}

TEST(JsonParse, DecodesEscapesIncludingUnicode) {
  si::JsonPtr v = si::json_parse(
      R"(["a\"b", "tab\there", "nl\n", "back\\slash", "\u00e9\u0024"])");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at(0)->as_string(), "a\"b");
  EXPECT_EQ(v->at(1)->as_string(), "tab\there");
  EXPECT_EQ(v->at(2)->as_string(), "nl\n");
  EXPECT_EQ(v->at(3)->as_string(), "back\\slash");
  EXPECT_EQ(v->at(4)->as_string(), "\xc3\xa9$");  // UTF-8 for e-acute
}

TEST(JsonParse, RejectsMalformedWithOffsetError) {
  const char* bad[] = {
      "",                 // empty document
      "{",                // truncated object
      "[1, 2",            // truncated array
      "{\"k\": }",        // missing value
      "{\"k\" 1}",        // missing colon
      "[1,, 2]",          // empty element
      "\"unterminated",   // unterminated string
      "\"bad \\q escape\"",
      "\"trunc \\u12\"",  // truncated \u escape
      "tru",              // truncated keyword
      "{\"k\": 1} extra", // trailing garbage
      "nan",              // non-finite literals are not JSON
  };
  for (const char* doc : bad) {
    std::string error;
    EXPECT_EQ(si::json_parse(doc, &error), nullptr) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(JsonParse, EnforcesNestingDepthLimit) {
  // 64 nested arrays parse; deep bombs are rejected, not stack-crashed.
  const std::string ok(64, '['), ok_close(64, ']');
  EXPECT_NE(si::json_parse(ok + "1" + ok_close), nullptr);
  std::string error;
  const std::string bomb(5000, '[');
  EXPECT_EQ(si::json_parse(bomb + std::string(5000, ']'), &error), nullptr);
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(JsonParse, FileHelperReportsUnreadableAndRoundTrips) {
  std::string error;
  EXPECT_EQ(si::json_parse_file("/nonexistent/subscale.json", &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  const std::string path = "test_io_json_parse_tmp.json";
  {
    std::ofstream out(path);
    out << R"({"answer": 42})";
  }
  si::JsonPtr v = si::json_parse_file(path, &error);
  ASSERT_NE(v, nullptr) << error;
  EXPECT_DOUBLE_EQ(v->number_at("answer", 0.0), 42.0);
  std::remove(path.c_str());
}
