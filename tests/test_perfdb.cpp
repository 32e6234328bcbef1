#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfdb/record.h"
#include "perfdb/rollup.h"
#include "perfdb/store.h"

namespace fs = std::filesystem;
namespace pdb = subscale::perfdb;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-test-perfdb-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
    // Created lazily by PerfDb::append — deliberately NOT made here, so
    // the store's create-on-first-append path is what the tests cover.
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

pdb::PerfRecord make_record(std::uint64_t ts, double iterations,
                            double wall_ms = 100.0,
                            bool interrupted = false) {
  pdb::PerfRecord r;
  r.bench = "trend_bench";
  r.card = "paper_bulk_lstp";
  r.rev = "rev" + std::to_string(ts);
  r.ts = ts;
  r.shape_ok = true;
  r.interrupted = interrupted;
  r.wall_ms = wall_ms;
  r.threads = 4;
  r.metrics.emplace_back("ioff_pa_um", 12.5);
  r.obs.emplace_back("tcad.gummel.outer_iterations", iterations);
  r.obs.emplace_back("tcad.poisson.newton_iterations", 2.0 * iterations);
  r.obs.emplace_back("cache.hit", 7.0);  // exempt family
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

// ---------------------------------------------------------------- record

TEST(PerfRecord, LineRoundTripIsByteFixedPoint) {
  const pdb::PerfRecord original = make_record(1700000000, 42.0);
  const std::string line = pdb::record_to_line(original);

  pdb::PerfRecord parsed;
  std::string error;
  ASSERT_TRUE(pdb::parse_record_line(line, parsed, &error)) << error;
  EXPECT_EQ(parsed.bench, original.bench);
  EXPECT_EQ(parsed.card, original.card);
  EXPECT_EQ(parsed.rev, original.rev);
  EXPECT_EQ(parsed.ts, original.ts);
  EXPECT_EQ(parsed.shape_ok, original.shape_ok);
  EXPECT_EQ(parsed.interrupted, original.interrupted);
  EXPECT_DOUBLE_EQ(parsed.wall_ms, original.wall_ms);
  EXPECT_EQ(parsed.threads, original.threads);

  // Parse -> render reproduces the exact bytes (sorted sub-objects make
  // the rendering canonical).
  EXPECT_EQ(pdb::record_to_line(parsed), line);
}

TEST(PerfRecord, LineIsSingleCompactLine) {
  const std::string line = pdb::record_to_line(make_record(1, 1.0));
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"perfdb\": \"subscale.perfdb.v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"checksum\": \""), std::string::npos);
}

TEST(PerfRecord, ChecksumDetectsBitFlip) {
  std::string line = pdb::record_to_line(make_record(1700000000, 42.0));
  // Flip one digit of a numeric value (the ts), keeping valid JSON.
  const std::size_t pos = line.find("1700000000");
  ASSERT_NE(pos, std::string::npos);
  line[pos] = '2';

  pdb::PerfRecord parsed;
  std::string error;
  EXPECT_FALSE(pdb::parse_record_line(line, parsed, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(PerfRecord, RejectsMissingChecksumAndWrongVersion) {
  pdb::PerfRecord parsed;
  EXPECT_FALSE(pdb::parse_record_line("{\"perfdb\": \"x\"}", parsed));
  EXPECT_FALSE(pdb::parse_record_line("not json at all", parsed));

  // A well-checksummed line of another version still fails closed.
  std::string line = pdb::record_to_line(make_record(1, 1.0));
  const std::string from = "subscale.perfdb.v1";
  line.replace(line.find(from), from.size(), "subscale.perfdb.v9");
  EXPECT_FALSE(pdb::parse_record_line(line, parsed));
}

TEST(PerfRecord, FindLooksUpWallObsAndMetrics) {
  const pdb::PerfRecord r = make_record(1, 42.0, 321.0);
  double v = 0.0;
  EXPECT_TRUE(r.find("wall_ms", v));
  EXPECT_DOUBLE_EQ(v, 321.0);
  EXPECT_TRUE(r.find("tcad.gummel.outer_iterations", v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_TRUE(r.find("ioff_pa_um", v));
  EXPECT_DOUBLE_EQ(v, 12.5);
  EXPECT_FALSE(r.find("no.such.key", v));
}

TEST(PerfRecord, BuildsFromBenchJson) {
  const std::string bench_json = R"({
  "bench": "table2_supervth",
  "card": "paper_bulk_lstp",
  "shape_ok": true,
  "wall_ms": 1234.5,
  "threads": 8,
  "metrics": {
    "ioff_32nm_pa_um": 195.3
  },
  "obs": {
    "tcad.gummel.outer_iterations": 900,
    "tcad.sweep.point_ms.sum": 55.5
  }
})";
  pdb::PerfRecord r;
  std::string error;
  ASSERT_TRUE(pdb::record_from_bench_json(bench_json, r, &error)) << error;
  EXPECT_EQ(r.bench, "table2_supervth");
  EXPECT_EQ(r.card, "paper_bulk_lstp");
  EXPECT_TRUE(r.shape_ok);
  EXPECT_FALSE(r.interrupted);
  EXPECT_DOUBLE_EQ(r.wall_ms, 1234.5);
  EXPECT_EQ(r.threads, 8u);
  // ts/rev are the caller's to stamp: BENCH documents do not carry them.
  EXPECT_EQ(r.ts, 0u);
  EXPECT_TRUE(r.rev.empty());
  double v = 0.0;
  EXPECT_TRUE(r.find("tcad.gummel.outer_iterations", v));
  EXPECT_DOUBLE_EQ(v, 900.0);

  pdb::PerfRecord bad;
  EXPECT_FALSE(
      pdb::record_from_bench_json("{\"wall_ms\": 1}", bad));  // bench-less
}

TEST(PerfRecord, BenchJsonInterruptedFlagSurvives) {
  const std::string bench_json = R"({
  "bench": "b",
  "card": "c",
  "shape_ok": false,
  "interrupted": true,
  "wall_ms": 7.0,
  "threads": 1,
  "metrics": {},
  "obs": {}
})";
  pdb::PerfRecord r;
  ASSERT_TRUE(pdb::record_from_bench_json(bench_json, r));
  EXPECT_TRUE(r.interrupted);
}

// ----------------------------------------------------------------- store

TEST(PerfDb, AppendThenLoadPreservesOrder) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  ASSERT_TRUE(db.append(make_record(100, 10.0)));
  ASSERT_TRUE(db.append(make_record(200, 11.0)));
  ASSERT_TRUE(db.append(make_record(300, 12.0)));

  pdb::PerfDb::LoadStats stats;
  const std::vector<pdb::PerfRecord> history =
      db.load("trend_bench", &stats);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(stats.total_lines, 3u);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(history[0].ts, 100u);
  EXPECT_EQ(history[2].ts, 300u);

  const std::vector<std::string> benches = db.benches();
  ASSERT_EQ(benches.size(), 1u);
  EXPECT_EQ(benches[0], "trend_bench");
}

TEST(PerfDb, MissingFileIsEmptyHistory) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  pdb::PerfDb::LoadStats stats;
  EXPECT_TRUE(db.load("never_ran", &stats).empty());
  EXPECT_EQ(stats.total_lines, 0u);
  EXPECT_TRUE(db.benches().empty());
}

TEST(PerfDb, RejectsEmptyBenchNameAndSanitizesPath) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  pdb::PerfRecord r = make_record(1, 1.0);
  r.bench.clear();
  EXPECT_FALSE(db.append(r));

  // A hostile bench name cannot escape the store directory.
  const std::string path = db.path_for("../../etc/passwd");
  EXPECT_EQ(path.find(".."), std::string::npos);
  EXPECT_EQ(path.rfind(dir.str(), 0), 0u);
}

TEST(PerfDb, CorruptLineSkipsAndCounts) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  ASSERT_TRUE(db.append(make_record(100, 10.0)));
  ASSERT_TRUE(db.append(make_record(200, 11.0)));

  // Corrupt the FIRST line in place (torn write, bit rot, ...).
  const std::string path = db.path_for("trend_bench");
  std::string text = read_file(path);
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  text[newline / 2] = '#';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  pdb::PerfDb::LoadStats stats;
  const std::vector<pdb::PerfRecord> history =
      db.load("trend_bench", &stats);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].ts, 200u);  // the intact record survives
  EXPECT_EQ(stats.total_lines, 2u);
  EXPECT_EQ(stats.corrupt, 1u);
}

TEST(PerfDb, GarbageTailDoesNotPoisonEarlierRecords) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  ASSERT_TRUE(db.append(make_record(100, 10.0)));
  {
    std::ofstream out(db.path_for("trend_bench"),
                      std::ios::binary | std::ios::app);
    out << "{\"perfdb\": \"subscale.perfdb.v1\", torn";  // no newline
  }
  // The next append must still land on its own line.
  ASSERT_TRUE(db.append(make_record(200, 11.0)));

  pdb::PerfDb::LoadStats stats;
  const std::vector<pdb::PerfRecord> history =
      db.load("trend_bench", &stats);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(stats.corrupt, 1u);
  EXPECT_EQ(history[1].ts, 200u);
}

TEST(PerfDb, InterruptedRecordsExcludedByDefault) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  ASSERT_TRUE(db.append(make_record(100, 10.0)));
  ASSERT_TRUE(
      db.append(make_record(200, 3.0, 5.0, /*interrupted=*/true)));
  ASSERT_TRUE(db.append(make_record(300, 11.0)));

  pdb::PerfDb::LoadStats stats;
  const std::vector<pdb::PerfRecord> history =
      db.load("trend_bench", &stats);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(stats.interrupted, 1u);
  EXPECT_EQ(history[0].ts, 100u);
  EXPECT_EQ(history[1].ts, 300u);
}

// ---------------------------------------------------------------- rollup

TEST(Rollup, WindowStatsAndMedian) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  const pdb::WindowStats s = pdb::window_stats(values);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);  // even n: midpoint of 2 and 3
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);

  EXPECT_DOUBLE_EQ(pdb::median_of({5.0, 1.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(pdb::median_of({}), 0.0);
}

TEST(Rollup, MetricSeriesSkipsRecordsLackingKey) {
  std::vector<pdb::PerfRecord> history = {make_record(1, 10.0),
                                          make_record(2, 11.0)};
  history[1].obs.clear();  // second record lost its obs block
  const std::vector<double> series =
      pdb::metric_series(history, "tcad.gummel.outer_iterations");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0], 10.0);

  const std::vector<double> walls = pdb::metric_series(history, "wall_ms");
  EXPECT_EQ(walls.size(), 2u);
}

TEST(Rollup, RobustTrendFitsSlopeAndShrugsOffOutlier) {
  // Perfect line: y = 5 + 2x.
  const pdb::TrendFit clean =
      pdb::robust_trend({5.0, 7.0, 9.0, 11.0, 13.0});
  ASSERT_TRUE(clean.ok);
  EXPECT_NEAR(clean.slope, 2.0, 1e-12);
  EXPECT_NEAR(clean.intercept, 5.0, 1e-12);

  // One wild outlier cannot swing the Theil–Sen slope the way least
  // squares would (LSQ slope here would be ~ -15).
  const pdb::TrendFit robust =
      pdb::robust_trend({5.0, 7.0, 200.0, 11.0, 13.0});
  ASSERT_TRUE(robust.ok);
  EXPECT_NEAR(robust.slope, 2.0, 1.0);

  EXPECT_FALSE(pdb::robust_trend({1.0}).ok);
  EXPECT_FALSE(pdb::robust_trend({}).ok);
}

TEST(TrendGate, CleanHistoryPasses) {
  std::vector<pdb::PerfRecord> history;
  for (int i = 0; i < 5; ++i) {
    history.push_back(make_record(100 + i, 100.0));
  }
  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.records, 5u);
  EXPECT_GT(report.compared, 0u);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(TrendGate, FewerThanTwoRecordsGatesNothing) {
  EXPECT_TRUE(pdb::trend_gate({}).ok());
  EXPECT_TRUE(pdb::trend_gate({make_record(1, 100.0)}).ok());
  EXPECT_EQ(pdb::trend_gate({make_record(1, 100.0)}).compared, 0u);
}

TEST(TrendGate, FiftyPercentDriftTrips) {
  std::vector<pdb::PerfRecord> history = {
      make_record(1, 100.0), make_record(2, 100.0), make_record(3, 100.0),
      make_record(4, 150.0)};
  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const pdb::MetricTrend& m : report.metrics) {
    if (m.key == "tcad.gummel.outer_iterations") {
      found = true;
      EXPECT_TRUE(m.regressed);
      EXPECT_FALSE(m.missing);
      EXPECT_DOUBLE_EQ(m.baseline, 100.0);
      EXPECT_DOUBLE_EQ(m.newest, 150.0);
      EXPECT_NEAR(m.change, 0.5, 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(TrendGate, SlowDriftPairwiseMissesButRollingBaselineCatches) {
  // +3 per run: every pairwise step is 3% (< 10% tolerance), but the
  // newest run is ~13% over the rolling window median.
  std::vector<pdb::PerfRecord> history;
  for (int i = 0; i <= 10; ++i) {
    history.push_back(make_record(100 + i, 100.0 + 3.0 * i));
  }
  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_FALSE(report.ok());
}

TEST(TrendGate, MissingKeyInNewestFails) {
  std::vector<pdb::PerfRecord> history = {
      make_record(1, 100.0), make_record(2, 100.0), make_record(3, 100.0)};
  // Newest record dropped the gummel counter entirely (schema drift).
  pdb::PerfRecord newest = make_record(4, 100.0);
  newest.obs.erase(newest.obs.begin());  // outer_iterations
  history.push_back(newest);

  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_FALSE(report.ok());
  bool saw_missing = false;
  for (const pdb::MetricTrend& m : report.metrics) {
    if (m.key == "tcad.gummel.outer_iterations") {
      saw_missing = m.missing && m.regressed;
    }
  }
  EXPECT_TRUE(saw_missing);
}

TEST(TrendGate, AppearsFromZeroTrips) {
  std::vector<pdb::PerfRecord> history;
  for (int i = 0; i < 3; ++i) {
    pdb::PerfRecord r = make_record(100 + i, 100.0);
    r.obs.emplace_back("tcad.gummel.failed_solves", 0.0);
    history.push_back(r);
  }
  pdb::PerfRecord newest = make_record(200, 100.0);
  newest.obs.emplace_back("tcad.gummel.failed_solves", 5.0);
  history.push_back(newest);

  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_FALSE(report.ok());
}

TEST(TrendGate, ExemptFamiliesNeverGate) {
  // cache.* is exempt by schema policy: a 10x jump must not trip, and
  // neither must a 5x wall time over flat effort.
  std::vector<pdb::PerfRecord> history = {make_record(1, 100.0),
                                          make_record(2, 100.0, 500.0)};
  history.back().obs[2].second = 70.0;  // cache.hit: 7 -> 70
  const pdb::TrendReport report = pdb::trend_gate(history);
  EXPECT_TRUE(report.ok());
  for (const pdb::MetricTrend& m : report.metrics) {
    EXPECT_NE(m.key.rfind("cache.", 0), 0u) << m.key;
    EXPECT_NE(m.key, "wall_ms");
  }
}

// The SIGTERM-flush scenario end to end: a partial record lands in the
// store (bench/common.h appends it stamped "interrupted": true), and the
// default load path keeps it out of every baseline — its half-counted
// counters would otherwise make the NEXT full run look like a huge
// regression against a baseline dragged down by the partial one.
TEST(TrendGate, InterruptedRecordNeverPoisonsTrendWindow) {
  TempDir dir;
  pdb::PerfDb db(dir.str());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.append(make_record(100 + i, 100.0)));
  }
  // SIGTERM mid-run: counters stopped at a fraction of a full run.
  ASSERT_TRUE(
      db.append(make_record(200, 12.0, 3.0, /*interrupted=*/true)));
  // The next FULL run, unchanged effort.
  ASSERT_TRUE(db.append(make_record(300, 100.0)));

  const std::vector<pdb::PerfRecord> history = db.load("trend_bench");
  ASSERT_EQ(history.size(), 5u);  // the partial one is gone
  for (const pdb::PerfRecord& r : history) {
    EXPECT_FALSE(r.interrupted);
  }
  EXPECT_TRUE(pdb::trend_gate(history).ok());

  // And if the INTERRUPTED run had been the last thing appended, the
  // default gate input still ends on the last full run — a partial
  // record can neither be the newest under test nor sit in a baseline.
  ASSERT_TRUE(
      db.append(make_record(400, 15.0, 4.0, /*interrupted=*/true)));
  const std::vector<pdb::PerfRecord> again = db.load("trend_bench");
  ASSERT_EQ(again.size(), 5u);
  EXPECT_EQ(again.back().ts, 300u);
  EXPECT_TRUE(pdb::trend_gate(again).ok());
}
