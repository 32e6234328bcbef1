#pragma once

/// \file csv.h
/// CSV export of data series (so figure data can be re-plotted outside).

#include <string>
#include <vector>

#include "io/series.h"

namespace subscale::io {

/// Render series sharing an x axis as CSV text: header "x,name1,name2,...",
/// one row per x of the FIRST series, cells as %g with non-finite values
/// as "null". Every series must have the first one's x values to 1e-12
/// relative (throws std::invalid_argument otherwise, and on no series).
std::string to_csv(const std::vector<Series>& series);

/// Write CSV text to a file (throws std::runtime_error on I/O failure).
void write_csv_file(const std::string& path, const std::vector<Series>& series);

}  // namespace subscale::io
