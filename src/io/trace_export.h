#pragma once

/// \file trace_export.h
/// Serializers for the observability artifacts that are documents in
/// their own right (rather than blocks inside a BENCH record): profiler
/// snapshots as Chrome trace-event JSON, and convergence trajectories
/// as a column-friendly JSON document.
///
/// write_chrome_trace emits the trace-event format understood by
/// chrome://tracing and by Perfetto's legacy importer: one "X"
/// (complete) event per closed span, timestamps in microseconds, one
/// track per recording thread. Drag the file into the viewer and the
/// nesting recorded by obs::SpanProfiler renders as a flamegraph.
///
/// Both emitters write JSON through io::JsonWriter.

#include <vector>

#include "io/writer.h"
#include "obs/convergence.h"
#include "obs/profiler.h"

namespace subscale::io {

/// Emit a profiler snapshot as a Chrome trace-event document:
/// {"displayTimeUnit": "ms", "traceEvents": [{name, cat, ph, ts, dur,
/// pid, tid, args: {depth, seq, parent}}, ...]}. Events keep the
/// snapshot's (tid, t0, seq) order; pid is always 1 (one process).
void write_chrome_trace(JsonWriter& w,
                        const obs::ProfileSnapshot& snapshot);

/// Emit recorded convergence trajectories as one document:
/// {"solves": [{vg, vd, converged, iteration: [...],
/// poisson_update: [...], poisson_iterations: [...],
/// continuity_max_density: [...], psi_update: [...]}, ...]}.
/// Per-iteration fields are column arrays so a solve's residual decay
/// plots directly; NaN samples (stage never reached) render as null.
void write_convergence_document(
    JsonWriter& w, const std::vector<obs::SolveTrajectory>& solves);

}  // namespace subscale::io
