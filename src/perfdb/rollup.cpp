#include "perfdb/rollup.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/names.h"

namespace subscale::perfdb {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

WindowStats window_stats(const std::vector<double>& values) {
  WindowStats s;
  s.n = values.size();
  if (values.empty()) return s;
  s.min = values.front();
  s.max = values.front();
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(values.size());
  s.median = median_of(values);
  return s;
}

TrendFit robust_trend(const std::vector<double>& values) {
  TrendFit fit;
  const std::size_t n = values.size();
  if (n < 2) return fit;
  // Histories are short (a gate window, tens of runs at most), so the
  // O(n^2) all-pairs slope set is fine.
  std::vector<double> slopes;
  slopes.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      slopes.push_back((values[j] - values[i]) /
                       static_cast<double>(j - i));
    }
  }
  fit.slope = median_of(std::move(slopes));
  std::vector<double> intercepts;
  intercepts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    intercepts.push_back(values[i] - fit.slope * static_cast<double>(i));
  }
  fit.intercept = median_of(std::move(intercepts));
  fit.ok = true;
  return fit;
}

std::vector<double> metric_series(const std::vector<PerfRecord>& history,
                                  std::string_view key) {
  std::vector<double> out;
  out.reserve(history.size());
  for (const PerfRecord& record : history) {
    double value = 0.0;
    if (record.find(key, value)) out.push_back(value);
  }
  return out;
}

TrendReport trend_gate(const std::vector<PerfRecord>& history) {
  TrendReport report;
  report.records = history.size();
  if (history.size() < 2) return report;  // nothing to gate against

  const PerfRecord& newest = history.back();
  const std::size_t window_end = history.size() - 1;
  const std::size_t window_begin =
      kTrendWindow < window_end ? window_end - kTrendWindow : 0;

  // The gated key set: every gateable obs key seen anywhere in the
  // baseline window. (Headline "metrics" values are bench-chosen
  // numbers — ratios, currents — informational, not effort, so they
  // never gate.) Keys only the newest record has get no baseline
  // (skipped); keys the window has but the newest lost fail as schema
  // drift.
  std::set<std::string> keys;
  for (std::size_t i = window_begin; i < window_end; ++i) {
    for (const auto& [key, value] : history[i].obs) {
      if (obs::names::regression_gated(key)) keys.insert(key);
    }
  }

  for (const std::string& key : keys) {
    MetricTrend mt;
    mt.key = key;

    std::vector<double> window_values;
    for (std::size_t i = window_begin; i < window_end; ++i) {
      double value = 0.0;
      if (history[i].find(key, value)) window_values.push_back(value);
    }
    if (window_values.empty()) continue;  // cannot happen for obs keys
    mt.window_n = window_values.size();
    mt.baseline = median_of(window_values);

    double newest_value = 0.0;
    if (!newest.find(key, newest_value)) {
      mt.missing = true;
      mt.regressed = true;  // schema drift: the key vanished
    } else {
      mt.newest = newest_value;
      if (mt.baseline == 0.0) {
        mt.change = newest_value > 0.0 ? 1.0 : 0.0;
        mt.regressed = newest_value > 0.0;  // appeared from zero
      } else {
        mt.change = (newest_value - mt.baseline) / std::abs(mt.baseline);
        mt.regressed = mt.change > kTrendTolerance;
      }
      std::vector<double> fit_values = window_values;
      fit_values.push_back(newest_value);
      mt.trend = robust_trend(fit_values);
    }

    ++report.compared;
    if (mt.regressed) ++report.regressions;
    report.metrics.push_back(std::move(mt));
  }
  return report;
}

}  // namespace subscale::perfdb
