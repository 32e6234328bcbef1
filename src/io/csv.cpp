#include "io/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace subscale::io {

namespace {

/// Shortest decimal text for a cell ("2", not "2.0000000..."). A
/// non-finite value renders as "null", as in JSON, so a NaN in a curve
/// cannot become platform-dependent "nan"/"inf" text that downstream
/// CSV readers disagree on.
void append_cell(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  out += buf;
}

}  // namespace

std::string to_csv(const std::vector<Series>& series) {
  if (series.empty()) {
    throw std::invalid_argument("to_csv: no series");
  }
  const Series& first = series.front();
  for (const Series& s : series) {
    if (s.size() != first.size()) {
      throw std::invalid_argument("to_csv: series lengths differ");
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      // The axes must agree to ~1e-12 relative, not bitwise.
      const double x = first[i].x;
      if (std::abs(s[i].x - x) > 1e-12 * std::max(1.0, std::abs(x))) {
        throw std::invalid_argument("to_csv: series x axes differ");
      }
    }
  }
  std::string out = "x";
  for (const Series& s : series) {
    out += ',';
    out += s.name();
  }
  out += '\n';
  for (std::size_t i = 0; i < first.size(); ++i) {
    append_cell(out, first[i].x);
    for (const Series& s : series) {
      out += ',';
      append_cell(out, s[i].y);
    }
    out += '\n';
  }
  return out;
}

void write_csv_file(const std::string& path,
                    const std::vector<Series>& series) {
  const std::string text = to_csv(series);
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("write_csv_file: cannot open " + path);
  }
  file << text;
  if (!file) {
    throw std::runtime_error("write_csv_file: write failed for " + path);
  }
}

}  // namespace subscale::io
