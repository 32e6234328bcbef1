#pragma once

/// \file rollup.h
/// Rollup queries and the trend-aware regression gate over a loaded
/// perf history (the timescaledb continuous-aggregate idiom, scaled to
/// JSONL): extract one metric's series across runs, summarize windows
/// (mean/median/min/max), fit a robust per-run trend (Theil–Sen), and
/// gate the newest record against the ROLLING BASELINE — the median of
/// the last N prior runs — instead of a single predecessor.
///
/// Why a rolling median beats a pairwise diff: a 3%-per-PR drift never
/// trips a 10% pairwise diff, but after four PRs the newest run is ~13%
/// over the window median and the trend gate fires. The median also
/// shrugs off one noisy or anomalous baseline run where a mean (or a
/// single-predecessor diff) would not. An explicit two-record
/// comparison (`obs_trend diff`) is the same gate over a two-record
/// history, so the older record alone is the baseline.
///
/// Which keys gate comes from the one schema table
/// (obs::names::regression_gated).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "perfdb/record.h"

namespace subscale::perfdb {

/// Summary statistics over a window of values.
struct WindowStats {
  std::size_t n = 0;
  double mean = 0.0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

WindowStats window_stats(const std::vector<double>& values);

/// Median of a value set (empty -> 0.0; even n -> midpoint average).
double median_of(std::vector<double> values);

/// Robust per-run trend: Theil–Sen estimator (median of all pairwise
/// slopes over x = 0..n-1), intercept = median(y_i - slope * i). One
/// wild outlier run cannot swing the slope the way least squares would.
/// `ok` is false below 2 points.
struct TrendFit {
  bool ok = false;
  double slope = 0.0;      ///< per-run change in the metric's units
  double intercept = 0.0;
};

TrendFit robust_trend(const std::vector<double>& values);

/// One metric's series across a history, oldest first, skipping records
/// that lack the key. Keys: "wall_ms", flat obs keys, headline metric
/// keys (PerfRecord::find order).
std::vector<double> metric_series(const std::vector<PerfRecord>& history,
                                  std::string_view key);

/// Baseline = median of up to this many records preceding the newest.
inline constexpr std::size_t kTrendWindow = 8;
/// Relative regression tolerance, newest vs baseline, for every gated
/// key. Wall clock (wall_ms, latency .sum keys) never gates.
inline constexpr double kTrendTolerance = 0.10;

/// One gated metric's verdict.
struct MetricTrend {
  std::string key;
  std::size_t window_n = 0;  ///< baseline samples actually present
  double baseline = 0.0;     ///< rolling median of the window
  double newest = 0.0;
  /// (newest - baseline) / |baseline|; 0 when both are zero.
  double change = 0.0;
  TrendFit trend;            ///< fit over window + newest
  bool missing = false;      ///< key vanished from the newest record
  bool regressed = false;
};

struct TrendReport {
  std::size_t records = 0;      ///< usable history length (incl. newest)
  std::size_t compared = 0;     ///< metrics actually gated
  std::size_t regressions = 0;
  /// Every gated metric, sorted by key (regressed or not).
  std::vector<MetricTrend> metrics;

  bool ok() const { return regressions == 0; }
};

/// Gate the newest record of `history` (oldest first, as PerfDb::load
/// returns it) against the rolling baseline. Fewer than 2 records gates
/// nothing and passes — a fresh history cannot regress. A gated key
/// present anywhere in the baseline window but missing from the newest
/// record fails (schema drift, reported as MISSING); a key new in the
/// newest record has no baseline and is skipped.
TrendReport trend_gate(const std::vector<PerfRecord>& history);

}  // namespace subscale::perfdb
