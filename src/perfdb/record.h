#pragma once

/// \file record.h
/// One perf-history record: the durable, longitudinal form of a
/// BENCH_<name>.json document. Where a BENCH file is the *latest* run
/// (overwritten every time), a PerfRecord is one line of an append-only
/// JSONL history (perfdb/store.h) tagged with when it ran and what
/// source revision produced it, so rollup queries (perfdb/rollup.h) can
/// see drift across PRs, not just across two files.
///
/// Line format — one compact, self-checksummed JSON object, e.g.
///   {"perfdb": "subscale.perfdb.v1", "bench": "tcad_validation", ...,
///    "obs": {...}, "checksum": "9f86d081884c7d65"}
/// The checksum is FNV-1a-64 (cache/hash.h, from this format's own
/// offset basis) over every byte of the line up to (and not
/// including) the `,"checksum"` member, rendered as 16 lowercase hex
/// digits. A loader verifies it before trusting the line: a torn or
/// bit-flipped line fails closed (skip-and-count, perfdb/store.h)
/// instead of feeding a corrupted value into a trend baseline.
///
/// Key order inside "metrics"/"obs" is sorted, so parse -> render is a
/// byte fixed point — the same canonical-bytes stance the serve wire
/// schema takes (serve/query.h).

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace subscale::perfdb {

/// The record-schema version string every line carries. Bump it when a
/// field changes meaning; loaders reject lines speaking another version
/// (counted as corrupt) rather than guessing.
inline constexpr const char* kPerfDbVersion = "subscale.perfdb.v1";

struct PerfRecord {
  std::string bench;  ///< bench name ("tcad_validation", ...)
  std::string card;   ///< technology-card id the run used
  std::string rev;    ///< source revision (SUBSCALE_GIT_REV); "" unknown
  std::uint64_t ts = 0;     ///< unix seconds when the record was made
  bool shape_ok = false;    ///< the bench's shape criterion held
  bool interrupted = false; ///< flushed by a signal handler mid-run —
                            ///< partial counters; PerfDb::load skips
                            ///< these
  double wall_ms = 0.0;
  std::uint64_t threads = 0;
  /// The bench's headline numbers (BENCH "metrics" block).
  std::vector<std::pair<std::string, double>> metrics;
  /// The flat telemetry block (BENCH "obs" block: counters, gauges,
  /// histograms flattened to .count/.sum — see io::write_metrics_snapshot).
  std::vector<std::pair<std::string, double>> obs;

  /// Value lookup across the record's series-able keys: "wall_ms", any
  /// obs key, any headline metric key (obs wins on collision). False
  /// when absent.
  bool find(std::string_view key, double& out) const;
};

/// Render one self-checksummed JSONL line (compact, no trailing
/// newline; "metrics"/"obs" keys sorted).
std::string record_to_line(const PerfRecord& record);

/// Parse + verify one line. False — with the reason in `error` when
/// non-null — on malformed JSON, a missing/forged checksum, a version
/// mismatch, or an empty bench name. On success `out` is fully
/// populated (absent optional fields default).
bool parse_record_line(std::string_view line, PerfRecord& out,
                       std::string* error = nullptr);

/// Build a PerfRecord from a BENCH_<name>.json document's text (the
/// obs_trend `append` ingest path). `ts` and `rev` are NOT in BENCH
/// documents — the caller stamps them afterwards. False + reason on
/// malformed or bench-less input.
bool record_from_bench_json(std::string_view text, PerfRecord& out,
                            std::string* error = nullptr);

}  // namespace subscale::perfdb
