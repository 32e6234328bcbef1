#pragma once

/// \file profiler.h
/// Hierarchical span profiler: RAII ScopedSpan handles record nested
/// begin/end intervals (static label, thread ordinal, nesting depth,
/// parent link) into per-thread buffers, merged on snapshot. Where the
/// metrics registry answers "how many", the profiler answers "in what
/// order" and "where the time nests": a slow study node decomposes into
/// sweep-point -> Gummel-stage -> linear-solve time without rerunning
/// under an external profiler.
///
/// Cost model (same philosophy as metrics.h):
///   * recording is lock-free: each thread owns a fixed-capacity,
///     preallocated buffer and publishes completed spans with a single
///     release store; the profiler mutex is taken only on a thread's
///     FIRST span and on snapshot();
///   * a null profiler costs one branch per ScopedSpan — call sites
///     resolve the profiler once (RunContext::span_sink()) and pass
///     the pointer, exactly like the Instruments pattern;
///   * buffers never grow: a span recorded past capacity is counted in
///     dropped() instead of allocating (soak-run safe).
///
/// Determinism contract: span *counts* per label and per
/// (parent label, label) edge are thread-count-invariant for work whose
/// event count is deterministic (study nodes, sweep points, Gummel
/// iterations) — the bitwise contract of DESIGN.md §10.3 extended to
/// nesting. Timestamps, durations and thread ordinals are wall-clock /
/// scheduling artifacts and are excluded, as always.
///
/// Labels must be string literals or other static-storage strings (the
/// records store the pointer, not a copy). A profiler must outlive
/// every ScopedSpan bound to it and every snapshot consumer.
///
/// This layer stays dependency-free (std only); the Chrome trace-event
/// exporter lives in io/trace_export.h.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace subscale::obs {

/// One closed interval, as merged into a snapshot. `seq` numbers spans
/// per thread in open order (1-based); `parent` is the `seq` of the
/// enclosing span on the same thread (0 = thread root), so (tid, seq)
/// uniquely keys a span and parent chains can be walked offline.
struct ProfileSpan {
  const char* label = "";   ///< static-storage label
  std::uint32_t tid = 0;    ///< thread ordinal, dense in first-use order
  std::uint32_t depth = 0;  ///< nesting depth on its thread (0 = root)
  std::uint64_t seq = 0;    ///< per-thread open order, 1-based
  std::uint64_t parent = 0; ///< seq of the enclosing span (0 = root)
  std::uint64_t t0_ns = 0;  ///< open time, ns since profiler creation
  std::uint64_t t1_ns = 0;  ///< close time, ns since profiler creation
  double duration_ms() const {
    return static_cast<double>(t1_ns - t0_ns) * 1e-6;
  }
};

/// One row of the self-time roll-up (the textual flamegraph).
struct ProfileRollupRow {
  std::string label;
  std::uint32_t min_depth = 0;  ///< shallowest depth the label occurs at
  std::uint64_t count = 0;
  double total_ms = 0.0;  ///< sum of span durations
  double self_ms = 0.0;   ///< total minus time inside child spans
  double pct_of_wall = 0.0;  ///< total as % of the snapshot wall span
};

/// Point-in-time merge of every thread's completed spans.
struct ProfileSnapshot {
  /// Sorted by (tid, t0_ns, seq) — one contiguous track per thread.
  std::vector<ProfileSpan> spans;
  std::uint64_t dropped = 0;  ///< spans lost to full thread buffers

  /// Earliest open to latest close across all threads (0 when empty).
  std::uint64_t wall_ns() const;

  /// Per-label aggregation, largest total first. Self time subtracts
  /// each child's duration from its parent; a dropped child inflates
  /// its parent's self time (noted by dropped > 0).
  std::vector<ProfileRollupRow> rollup() const;

  /// The roll-up rendered as a fixed-width text table: label (indented
  /// by min depth), count, total ms, self ms, % of wall.
  std::string rollup_table() const;

  /// Span tally per label — the thread-count-deterministic view.
  std::map<std::string, std::uint64_t> label_counts() const;
  /// Span tally per (parent label, label) edge; a thread-root span has
  /// parent label "". Deterministic like label_counts().
  std::map<std::pair<std::string, std::string>, std::uint64_t>
  edge_counts() const;
};

class ScopedSpan;

/// Owns the per-thread span buffers. Threads attach lazily on their
/// first span (one mutex acquisition per thread per profiler); snapshot
/// merges whatever each thread has published so far and is safe to call
/// while spans are still being recorded on other threads.
class SpanProfiler {
 public:
  /// `per_thread_capacity` spans are preallocated per recording thread
  /// (~56 bytes each). Throws std::invalid_argument when zero.
  explicit SpanProfiler(std::size_t per_thread_capacity = 1 << 16);
  ~SpanProfiler();

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  std::size_t per_thread_capacity() const { return capacity_; }

  ProfileSnapshot snapshot() const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer;

  /// The calling thread's buffer, attached on first use.
  ThreadBuffer* local_buffer();

  const std::uint64_t id_;  ///< process-unique (guards thread caches)
  const std::size_t capacity_;
  const std::uint64_t t0_ns_;  ///< steady-clock epoch of the profiler
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span handle. A null profiler makes construction and destruction
/// a single branch each — the instrumented stack passes the resolved
/// profiler pointer down and pays nothing when profiling is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanProfiler* profiler, const char* label);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanProfiler::ThreadBuffer* buf_ = nullptr;
  const char* label_ = "";
  std::uint64_t t0_ns_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t depth_ = 0;
};

/// Process-wide default profiler, mirroring obs::default_registry():
/// null (the default) disables every call site that falls back to it.
/// The caller keeps ownership and must keep the profiler alive until it
/// is uninstalled (benches install a function-local static).
void set_default_profiler(SpanProfiler* profiler);
SpanProfiler* default_profiler();

}  // namespace subscale::obs
