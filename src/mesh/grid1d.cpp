#include "mesh/grid1d.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace subscale::mesh {

std::vector<double> graded_ticks(const GradedSegment& segment) {
  if (segment.x1 <= segment.x0) {
    throw std::invalid_argument("graded_ticks: x1 must exceed x0");
  }
  if (segment.h0 <= 0.0 || segment.ratio <= 0.0) {
    throw std::invalid_argument("graded_ticks: h0 and ratio must be positive");
  }
  const double length = segment.x1 - segment.x0;
  std::vector<double> ticks{segment.x0};
  double x = segment.x0;
  double h = segment.h0;
  while (x + h < segment.x1 - 0.25 * h) {
    x += h;
    ticks.push_back(x);
    h *= segment.ratio;
    if (ticks.size() > 100000) {
      throw std::runtime_error("graded_ticks: too many ticks");
    }
    // Guard: don't let a single cell exceed the remaining span.
    h = std::min(h, length);
  }
  ticks.push_back(segment.x1);
  return ticks;
}

std::vector<double> double_graded_ticks(double x0, double x1, double h_edge,
                                        double ratio) {
  if (x1 <= x0) {
    throw std::invalid_argument("double_graded_ticks: x1 must exceed x0");
  }
  const double mid = 0.5 * (x0 + x1);
  const std::vector<double> left =
      graded_ticks({.x0 = x0, .x1 = mid, .h0 = h_edge, .ratio = ratio});
  const std::vector<double> right =
      graded_ticks({.x0 = x0, .x1 = mid, .h0 = h_edge, .ratio = ratio});
  std::vector<double> ticks = left;
  // Mirror the right half: ticks measured from x1 downward.
  for (auto it = right.rbegin(); it != right.rend(); ++it) {
    ticks.push_back(x1 - (*it - x0));
  }
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
  return ticks;
}

Grid1d::Grid1d(std::vector<double> ticks, double merge_tolerance)
    : ticks_(std::move(ticks)) {
  finalize(merge_tolerance);
}

void Grid1d::add_ticks(const std::vector<double>& ticks) {
  if (finalized_) {
    throw std::logic_error("Grid1d: cannot add ticks after finalize");
  }
  ticks_.insert(ticks_.end(), ticks.begin(), ticks.end());
}

void Grid1d::add_point(double x) {
  if (finalized_) {
    throw std::logic_error("Grid1d: cannot add ticks after finalize");
  }
  ticks_.push_back(x);
}

void Grid1d::finalize(double merge_tolerance) {
  if (ticks_.empty()) {
    throw std::logic_error("Grid1d::finalize: empty grid");
  }
  std::sort(ticks_.begin(), ticks_.end());
  std::vector<double> merged;
  merged.reserve(ticks_.size());
  merged.push_back(ticks_.front());
  for (double t : ticks_) {
    if (t - merged.back() > merge_tolerance) {
      merged.push_back(t);
    }
  }
  ticks_ = std::move(merged);
  if (ticks_.size() < 2) {
    throw std::logic_error("Grid1d::finalize: need at least 2 distinct ticks");
  }
  finalized_ = true;
}

std::size_t Grid1d::nearest_index(double x) const {
  if (!finalized_) {
    throw std::logic_error("Grid1d::nearest_index: grid not finalized");
  }
  const auto it = std::lower_bound(ticks_.begin(), ticks_.end(), x);
  if (it == ticks_.begin()) return 0;
  if (it == ticks_.end()) return ticks_.size() - 1;
  const std::size_t hi = static_cast<std::size_t>(it - ticks_.begin());
  const std::size_t lo = hi - 1;
  return (x - ticks_[lo] <= ticks_[hi] - x) ? lo : hi;
}

}  // namespace subscale::mesh
