#pragma once

/// \file grid1d.h
/// Nonuniform 1-D grid construction. Device meshes need fine spacing at
/// material interfaces (oxide/silicon, junctions) and coarse spacing in
/// the bulk; GradedSegment generates geometrically graded ticks and
/// Grid1d merges segments into a strictly increasing tick vector.

#include <vector>

namespace subscale::mesh {

/// A segment [x0, x1] discretized with geometric grading.
///
/// `h0` is the spacing at the x0 end; spacings grow by `ratio` toward x1
/// (ratio < 1 shrinks instead). The generator adjusts the last cell so the
/// segment end is hit exactly.
struct GradedSegment {
  double x0 = 0.0;
  double x1 = 0.0;
  double h0 = 0.0;
  double ratio = 1.0;
};

/// Generate the ticks of one graded segment, including both endpoints.
std::vector<double> graded_ticks(const GradedSegment& segment);

/// Ticks for a segment refined toward BOTH ends: fine spacing h_edge at
/// each end, growing geometrically toward the middle with `ratio` > 1.
std::vector<double> double_graded_ticks(double x0, double x1, double h_edge,
                                        double ratio);

/// Strictly increasing set of grid ticks built by merging segments.
class Grid1d {
 public:
  Grid1d() = default;

  /// Build from raw ticks (sorted + deduplicated with tolerance).
  explicit Grid1d(std::vector<double> ticks, double merge_tolerance = 0.0);

  /// Append ticks (merged on finalize()).
  void add_ticks(const std::vector<double>& ticks);

  /// Ensure a specific coordinate appears as a tick.
  void add_point(double x);

  /// Sort, deduplicate (ticks closer than `merge_tolerance` collapse) and
  /// freeze the grid.
  void finalize(double merge_tolerance);

  const std::vector<double>& ticks() const { return ticks_; }
  std::size_t size() const { return ticks_.size(); }
  double operator[](std::size_t i) const { return ticks_[i]; }

  /// Spacing between tick i and i+1.
  double spacing(std::size_t i) const { return ticks_[i + 1] - ticks_[i]; }

  /// Index of the tick nearest to x (grid must be finalized).
  std::size_t nearest_index(double x) const;

 private:
  std::vector<double> ticks_;
  bool finalized_ = false;
};

}  // namespace subscale::mesh
