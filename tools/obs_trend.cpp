/// obs_trend: the one telemetry tool over BENCH_<name>.json records
/// and the perf-history store (src/perfdb). `gate` checks the NEWEST
/// run of a bench against the rolling baseline — the median of the
/// last N prior runs — so slow multi-PR drift (3% per PR, never
/// tripping a 10% pairwise diff) still fires once it accumulates;
/// `diff` applies the same rule to two records, OLD as the baseline.
///
///   obs_trend append --db DIR [--ts SECONDS] [--rev REV] BENCH.json...
///   obs_trend gate   --db DIR --bench NAME
///                    [--metric-min KEY=F]... [--metric-max KEY=F]...
///   obs_trend show   --db DIR --bench NAME [--metric KEY]
///   obs_trend list   --db DIR
///   obs_trend diff   OLD.json NEW.json
///   obs_trend schema BENCH.json...
///
/// `append` ingests BENCH_<name>.json documents (bench/common.h output)
/// into the store, stamping timestamp and revision; the bench driver
/// appends directly when SUBSCALE_PERFDB_DIR is set, so `append` mostly
/// serves check.sh smokes and manual backfills. `gate` is the CI entry
/// point; `show` prints per-metric rollup stats and the Theil–Sen trend;
/// `list` names the benches with history. `gate` and `diff` fail when a
/// gated key grows by more than 10% over its baseline (the median of up
/// to 8 prior runs for `gate`), appears from zero, or goes missing;
/// wall clock never gates. `schema` fails a record whose "obs" block is
/// missing or empty, holds a key outside the schema table, or lacks one
/// of the cross-PR trajectory keys.
///
/// Which keys exist and which gate comes from the one schema table in
/// src/obs/names.h (obs::names::find_flat / regression_gated).
/// Interrupted (signal-flushed) records never enter baselines.
///
/// Exit codes: 0 = pass, 1 = regression or schema violation,
/// 2 = usage/load error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/names.h"
#include "perfdb/record.h"
#include "perfdb/rollup.h"
#include "perfdb/store.h"

namespace {

using subscale::perfdb::kTrendTolerance;
using subscale::perfdb::MetricTrend;
using subscale::perfdb::PerfDb;
using subscale::perfdb::PerfRecord;
using subscale::perfdb::TrendReport;
using subscale::perfdb::WindowStats;

int usage() {
  std::fprintf(
      stderr,
      "usage: obs_trend append --db DIR [--ts SECONDS] [--rev REV] "
      "BENCH.json...\n"
      "       obs_trend gate   --db DIR --bench NAME\n"
      "                        [--metric-min KEY=F]... [--metric-max KEY=F]...\n"
      "       obs_trend show   --db DIR --bench NAME [--metric KEY]\n"
      "       obs_trend list   --db DIR\n"
      "       obs_trend diff   OLD.json NEW.json\n"
      "       obs_trend schema BENCH.json...\n");
  return 2;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// Read one BENCH_<name>.json document into a record, reporting why
/// not on stderr.
bool load_bench(const std::string& path, PerfRecord& record) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "obs_trend: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!subscale::perfdb::record_from_bench_json(text.str(), record,
                                                &error)) {
    std::fprintf(stderr, "obs_trend: %s: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

/// One line per failed metric of a trend report; `gate` and `diff`
/// share it.
void print_verdicts(const TrendReport& report) {
  for (const MetricTrend& m : report.metrics) {
    if (m.missing) {
      std::printf("MISSING  %-44s baseline=%g (key absent in newest)\n",
                  m.key.c_str(), m.baseline);
    } else if (m.regressed) {
      std::printf("REGRESS  %-44s baseline=%g newest=%g (%+.1f%%, "
                  "window=%zu, slope=%g/run)\n",
                  m.key.c_str(), m.baseline, m.newest, 100.0 * m.change,
                  m.window_n, m.trend.slope);
    }
  }
}

int cmd_append(const std::string& db_dir, std::uint64_t ts,
               const std::string& rev,
               const std::vector<std::string>& paths) {
  PerfDb db(db_dir);
  for (const std::string& path : paths) {
    PerfRecord record;
    if (!load_bench(path, record)) return 2;
    record.ts = ts;
    record.rev = rev;
    if (!db.append(record)) {
      std::fprintf(stderr, "obs_trend: append to %s failed\n",
                   db.path_for(record.bench).c_str());
      return 2;
    }
    std::printf("appended %s -> %s\n", record.bench.c_str(),
                db.path_for(record.bench).c_str());
  }
  return 0;
}

/// Absolute budgets on the newest record (headline metrics included —
/// the trend gate deliberately skips those, but a bench-chosen number
/// like cold_solve_ms_accel or cold_speedup can still carry a hard
/// floor/ceiling the CI run must honor). A budgeted key missing from
/// the newest record fails, same stance as the trend gate's MISSING.
int check_budgets(
    const PerfRecord& newest,
    const std::vector<std::pair<std::string, double>>& metric_mins,
    const std::vector<std::pair<std::string, double>>& metric_maxs) {
  int violations = 0;
  const auto value_of = [&newest](const std::string& key, double& out) {
    return newest.find(key, out);
  };
  for (const auto& [key, floor] : metric_mins) {
    double v = 0.0;
    if (!value_of(key, v)) {
      std::printf("BUDGET   %-44s MISSING (wanted >= %g)\n", key.c_str(),
                  floor);
      ++violations;
    } else if (v < floor) {
      std::printf("BUDGET   %-44s newest=%g below floor %g\n", key.c_str(),
                  v, floor);
      ++violations;
    }
  }
  for (const auto& [key, cap] : metric_maxs) {
    double v = 0.0;
    if (!value_of(key, v)) {
      std::printf("BUDGET   %-44s MISSING (wanted <= %g)\n", key.c_str(),
                  cap);
      ++violations;
    } else if (v > cap) {
      std::printf("BUDGET   %-44s newest=%g over budget %g\n", key.c_str(),
                  v, cap);
      ++violations;
    }
  }
  return violations;
}

int cmd_gate(const std::string& db_dir, const std::string& bench,
             const std::vector<std::pair<std::string, double>>& metric_mins,
             const std::vector<std::pair<std::string, double>>& metric_maxs) {
  PerfDb db(db_dir);
  PerfDb::LoadStats stats;
  const std::vector<PerfRecord> history = db.load(bench, &stats);
  if (stats.corrupt > 0) {
    std::fprintf(stderr, "obs_trend: %zu corrupt line(s) skipped in %s\n",
                 stats.corrupt, db.path_for(bench).c_str());
  }
  const bool budgeted = !metric_mins.empty() || !metric_maxs.empty();
  if (budgeted && history.empty()) {
    std::fprintf(stderr,
                 "obs_trend: %s: no usable records to budget-check\n",
                 bench.c_str());
    return 1;
  }
  if (history.size() < 2) {
    // Budgets are absolute — one record is enough to check them; only
    // the relative trend gate needs history.
    if (budgeted) {
      const int violations =
          check_budgets(history.back(), metric_mins, metric_maxs);
      if (violations > 0) {
        std::printf("obs_trend: %d budget violation(s)\n", violations);
        return 1;
      }
    }
    std::printf(
        "obs_trend: %s: %zu usable record(s) — nothing to gate yet "
        "(trivial pass%s)\n",
        bench.c_str(), history.size(), budgeted ? ", budgets OK" : "");
    return 0;
  }
  const TrendReport report = subscale::perfdb::trend_gate(history);
  print_verdicts(report);
  const int budget_violations =
      check_budgets(history.back(), metric_mins, metric_maxs);
  if (!report.ok() || budget_violations > 0) {
    std::printf(
        "obs_trend: %zu regression(s), %d budget violation(s) vs rolling "
        "baseline (%zu metrics gated over %zu records, tolerance %.0f%%)\n",
        report.regressions, budget_violations, report.compared,
        report.records, 100.0 * kTrendTolerance);
    return 1;
  }
  std::printf(
      "obs_trend: OK (%zu metrics gated over %zu records, tolerance "
      "%.0f%%%s)\n",
      report.compared, report.records, 100.0 * kTrendTolerance,
      budgeted ? ", budgets OK" : "");
  return 0;
}

int cmd_show(const std::string& db_dir, const std::string& bench,
             const std::string& only_metric) {
  PerfDb db(db_dir);
  PerfDb::LoadStats stats;
  const std::vector<PerfRecord> history = db.load(bench, &stats);
  std::printf("%s: %zu record(s) (%zu corrupt, %zu interrupted skipped)\n",
              bench.c_str(), history.size(), stats.corrupt,
              stats.interrupted);
  if (history.empty()) return 0;

  // Every series-able key across the history: wall_ms + union of obs.
  std::vector<std::string> keys;
  keys.push_back("wall_ms");
  const auto add_key = [&keys](const std::string& key) {
    for (const std::string& k : keys) {
      if (k == key) return;
    }
    keys.push_back(key);
  };
  for (const PerfRecord& r : history) {
    for (const auto& [key, value] : r.obs) {
      (void)value;
      add_key(key);
    }
    // Headline metrics chart too (obs wins on collision, same order
    // PerfRecord::find resolves them).
    for (const auto& [key, value] : r.metrics) {
      (void)value;
      add_key(key);
    }
  }

  for (const std::string& key : keys) {
    if (!only_metric.empty() && key != only_metric) continue;
    const std::vector<double> series =
        subscale::perfdb::metric_series(history, key);
    if (series.empty()) continue;
    const WindowStats stats_all = subscale::perfdb::window_stats(series);
    const subscale::perfdb::TrendFit fit =
        subscale::perfdb::robust_trend(series);
    std::printf("%-46s n=%-3zu mean=%-12g median=%-12g min=%-12g max=%-12g "
                "slope=%g/run\n",
                key.c_str(), stats_all.n, stats_all.mean, stats_all.median,
                stats_all.min, stats_all.max, fit.ok ? fit.slope : 0.0);
  }
  return 0;
}

/// The pairwise gate: trend_gate over the two-record history
/// {OLD, NEW}, so OLD alone is the baseline.
int cmd_diff(const std::string& old_path, const std::string& new_path) {
  std::vector<PerfRecord> history(2);
  if (!load_bench(old_path, history[0]) ||
      !load_bench(new_path, history[1])) {
    return 2;
  }
  const TrendReport report = subscale::perfdb::trend_gate(history);
  print_verdicts(report);
  if (!report.ok()) {
    std::printf("obs_trend: %zu regression(s) over tolerance %.0f%% (%zu "
                "keys compared)\n",
                report.regressions, 100.0 * kTrendTolerance,
                report.compared);
    return 1;
  }
  std::printf("obs_trend: OK (%zu keys compared, tolerance %.0f%%)\n",
              report.compared, 100.0 * kTrendTolerance);
  return 0;
}

/// Validate each record's "obs" block against the schema table: every
/// key must be a row (names::find_flat), and the cross-PR trajectory
/// keys every bench carries must be present.
int cmd_schema(const std::vector<std::string>& paths) {
  namespace names = subscale::obs::names;
  constexpr const char* kRequired[] = {
      names::kGummelOuterIterations, names::kGummelRetries,
      names::kPoissonNewtonIterations, names::kPoolUtilizationPct};
  int status = 0;
  for (const std::string& path : paths) {
    PerfRecord record;
    if (!load_bench(path, record)) return 2;
    if (record.obs.empty()) {
      std::printf("SCHEMA   %s: missing or empty \"obs\" block\n",
                  path.c_str());
      status = 1;
      continue;
    }
    for (const auto& [key, value] : record.obs) {
      (void)value;
      if (names::find_flat(key) == nullptr) {
        std::printf("SCHEMA   %s: unknown metric key \"%s\" (declare it "
                    "as an X(...) row in src/obs/names.h)\n",
                    path.c_str(), key.c_str());
        status = 1;
      }
    }
    for (const char* key : kRequired) {
      const auto has_key = [key](const auto& entry) {
        return entry.first == key;
      };
      if (std::none_of(record.obs.begin(), record.obs.end(), has_key)) {
        std::printf("SCHEMA   %s: required metric key \"%s\" missing\n",
                    path.c_str(), key);
        status = 1;
      }
    }
  }
  if (status == 0) std::printf("obs_trend: %zu record(s) OK\n", paths.size());
  return status;
}

int cmd_list(const std::string& db_dir) {
  PerfDb db(db_dir);
  for (const std::string& bench : db.benches()) {
    PerfDb::LoadStats stats;
    const std::vector<PerfRecord> history = db.load(bench, &stats);
    std::printf("%-32s %zu record(s)\n", bench.c_str(), history.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  std::string db_dir;
  std::string bench;
  std::string only_metric;
  std::string rev;
  std::uint64_t ts = static_cast<std::uint64_t>(std::time(nullptr));
  std::vector<std::pair<std::string, double>> metric_mins;
  std::vector<std::pair<std::string, double>> metric_maxs;
  std::vector<std::string> paths;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obs_trend: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--db") {
      const char* v = need_value("--db");
      if (v == nullptr) return 2;
      db_dir = v;
    } else if (arg == "--bench") {
      const char* v = need_value("--bench");
      if (v == nullptr) return 2;
      bench = v;
    } else if (arg == "--metric") {
      const char* v = need_value("--metric");
      if (v == nullptr) return 2;
      only_metric = v;
    } else if (arg == "--ts") {
      const char* v = need_value("--ts");
      if (v == nullptr) return 2;
      char* end = nullptr;
      ts = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "obs_trend: bad --ts %s\n", v);
        return 2;
      }
    } else if (arg == "--rev") {
      const char* v = need_value("--rev");
      if (v == nullptr) return 2;
      rev = v;
    } else if (arg == "--metric-min" || arg == "--metric-max") {
      const char* v = need_value(arg.c_str());
      if (v == nullptr) return 2;
      const std::string spec = v;
      const std::size_t eq = spec.find('=');
      double bound = 0.0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_double(spec.c_str() + eq + 1, bound)) {
        std::fprintf(stderr, "obs_trend: %s wants KEY=F, got %s\n",
                     arg.c_str(), v);
        return 2;
      }
      (arg == "--metric-min" ? metric_mins : metric_maxs)
          .emplace_back(spec.substr(0, eq), bound);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "obs_trend: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (cmd == "diff") {
    if (paths.size() != 2) {
      std::fprintf(stderr, "obs_trend: diff wants OLD.json NEW.json\n");
      return usage();
    }
    return cmd_diff(paths[0], paths[1]);
  }
  if (cmd == "schema") {
    if (paths.empty()) {
      std::fprintf(stderr, "obs_trend: schema wants BENCH.json paths\n");
      return usage();
    }
    return cmd_schema(paths);
  }
  if (db_dir.empty()) {
    std::fprintf(stderr, "obs_trend: --db is required\n");
    return usage();
  }

  if (cmd == "append") {
    if (paths.empty()) {
      std::fprintf(stderr, "obs_trend: append wants BENCH.json paths\n");
      return usage();
    }
    return cmd_append(db_dir, ts, rev, paths);
  }
  if (cmd == "gate") {
    if (bench.empty()) {
      std::fprintf(stderr, "obs_trend: gate wants --bench\n");
      return usage();
    }
    return cmd_gate(db_dir, bench, metric_mins, metric_maxs);
  }
  if (cmd == "show") {
    if (bench.empty()) {
      std::fprintf(stderr, "obs_trend: show wants --bench\n");
      return usage();
    }
    return cmd_show(db_dir, bench, only_metric);
  }
  if (cmd == "list") {
    return cmd_list(db_dir);
  }
  std::fprintf(stderr, "obs_trend: unknown command %s\n", cmd.c_str());
  return usage();
}
