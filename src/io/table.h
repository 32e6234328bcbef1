#pragma once

/// \file table.h
/// Aligned plain-text tables for the bench harnesses: every bench prints
/// paper-reported values next to measured values in this format.

#include <string>
#include <vector>

namespace subscale::io {

/// A simple column-oriented text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Add one row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with column alignment, a header underline and `indent` spaces
  /// before each line.
  std::string render(int indent = 0) const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers with fixed significant digits.
std::string fmt(double value, int precision = 4);
std::string fmt_sci(double value, int precision = 3);
/// "x.xx%" formatting of a ratio (0.23 -> "23.0%").
std::string fmt_pct(double ratio, int precision = 1);

}  // namespace subscale::io
