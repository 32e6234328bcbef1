#pragma once

/// \file store.h
/// The append-only perf-history store: one `<dir>/<bench>.jsonl` file
/// per bench, one self-checksummed PerfRecord line per run, oldest
/// first. File-per-bench is the concurrency design, not a convenience:
/// appends are read-modify-rename (cache::atomic_write_file — the same
/// temp-file + fsync + rename primitive the solve cache's records and
/// the orchestrator's manifests go through), so a reader always sees a
/// whole file of whole lines, and two *different* benches append in
/// parallel without touching each other. Two simultaneous appends to
/// the SAME bench would lose one record (last rename wins) — benches
/// are single-writer per process run, which check.sh and the bench
/// driver both respect.
///
/// Load stance mirrors the solve cache's: corruption is data loss, not
/// an error. A line that fails its checksum or JSON parse is skipped
/// and counted (LoadStats::corrupt), never fed into a trend baseline.
/// Records stamped `interrupted` (a SIGTERM-flushed partial run) are
/// likewise skipped and counted (LoadStats::interrupted) — their
/// counters describe a fraction of a run and would drag a rolling
/// median. They stay in the file for anyone reading it by hand.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "perfdb/record.h"

namespace subscale::perfdb {

class PerfDb {
 public:
  /// Binds the store to a directory (created lazily on first append).
  explicit PerfDb(std::string dir);

  const std::string& dir() const { return dir_; }

  /// The history file for a bench name. Names outside [A-Za-z0-9_-]
  /// are sanitized to '_' so a hostile bench name cannot escape `dir`.
  std::string path_for(std::string_view bench) const;

  /// Append one record to its bench's history (atomic rename; creates
  /// the directory). False on an empty bench name or any I/O failure —
  /// the previous history is untouched either way.
  bool append(const PerfRecord& record);

  struct LoadStats {
    std::size_t total_lines = 0;  ///< non-empty lines seen
    std::size_t loaded = 0;       ///< records returned
    std::size_t corrupt = 0;      ///< skipped: bad checksum/JSON/version
    std::size_t interrupted = 0;  ///< skipped: partial signal-flushed runs
  };

  /// The history for `bench`, oldest first (file order). Corrupt lines
  /// and interrupted records skip-and-count. A missing file is an empty
  /// history, not an error.
  std::vector<PerfRecord> load(std::string_view bench,
                               LoadStats* stats = nullptr) const;

  /// Bench names with history present, sorted.
  std::vector<std::string> benches() const;

 private:
  std::string dir_;
};

}  // namespace subscale::perfdb
