#pragma once

/// \file run_context.h
/// RunContext: the one object that travels top-down through the solver
/// stack, carrying the thread policy and the telemetry and cache sinks:
///
///   * `exec`    — thread policy: an explicit count, else
///                 SUBSCALE_THREADS, else hardware auto (see
///                 ExecPolicy::resolved_threads; ExecPolicy.* in
///                 tests/test_exec.cpp). ScalingStudy hands its
///                 context's policy to both design strategies.
///   * `metrics` — telemetry sink. Null means "fall back to the
///                 process-wide obs::default_registry()", which is
///                 itself null unless installed — the zero-overhead
///                 default.
///   * `profiler` — optional hierarchical span profiler. Null falls
///                 back to obs::default_profiler() (itself null unless
///                 installed), mirroring `metrics`.
///   * `convergence` — optional per-solve residual-trajectory recorder.
///                 Strictly opt-in: no process-wide default exists.
///   * `cache`   — optional persistent solve cache. Null falls back to
///                 cache::default_cache() (itself null unless installed,
///                 e.g. via cache::install_env_cache() from
///                 SUBSCALE_CACHE_DIR), mirroring `metrics`. Components
///                 resolve it once at construction through
///                 cache_sink(), the one place that rule lives.
///
/// A solver failure is never thrown through a sweep or a study: it is
/// recorded (tcad::SweepReport, core::TcadNodeValidation::error) and
/// the run continues.
///
/// Like GummelOptions, a RunContext is validated at the point a
/// component adopts it (TcadDevice, ScalingStudy), not at each field
/// assignment.

#include <cstddef>

#include "exec/policy.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace subscale::cache {
class SolveCache;
SolveCache* default_cache();
}  // namespace subscale::cache

namespace subscale::exec {

struct RunContext {
  ExecPolicy exec{};
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanProfiler* profiler = nullptr;
  obs::ConvergenceRecorder* convergence = nullptr;
  cache::SolveCache* cache = nullptr;
  /// Opt out of the default-cache fallback entirely (cache_sink() then
  /// resolves to null even when an env cache is installed). Benches use
  /// this to measure genuinely cold solves under SUBSCALE_CACHE_DIR.
  bool no_cache = false;

  /// Fat-finger guard on explicit thread counts (a request for tens of
  /// thousands of workers is always a unit mistake, not a policy).
  static constexpr std::size_t kMaxThreads = 4096;

  /// Throws std::invalid_argument naming the offending field
  /// (GummelOptions::validate style). Called by every component
  /// constructor/entry point that adopts the context.
  void validate() const;

  /// The telemetry sink this context resolves to: the explicit
  /// registry, else the process default, else null (telemetry off).
  obs::MetricsRegistry* sink() const {
    return metrics != nullptr ? metrics : obs::default_registry();
  }

  /// The span profiler this context resolves to: the explicit profiler,
  /// else the process default, else null (profiling off). Components
  /// resolve this once at construction, Instruments-style.
  obs::SpanProfiler* span_sink() const {
    return profiler != nullptr ? profiler : obs::default_profiler();
  }

  /// The solve cache this context resolves to: the explicit cache, else
  /// the process default, else null (caching off). Resolved once at
  /// component construction, like the metrics sink.
  cache::SolveCache* cache_sink() const {
    if (no_cache) return nullptr;
    return cache != nullptr ? cache : cache::default_cache();
  }
};

}  // namespace subscale::exec
