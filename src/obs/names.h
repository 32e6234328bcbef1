#pragma once

/// \file names.h
/// The canonical metric schema, declared ONCE as the X-macro table
/// SUBSCALE_OBS_SCHEMA below. Every consumer derives from that table:
///   * the `names::k*` constants every instrumented layer spells its
///     instruments through,
///   * `preregister_standard()`, which touches every instrument so each
///     BENCH_<name>.json carries the full key set (zeros included) —
///     that is what keeps the bench trajectory comparable across PRs,
///   * `kStandardSchema` + `find_flat()`, the one lookup from a flat
///     record key to its row: `obs_trend schema` whitelists BENCH
///     record keys through it, and
///   * `regression_gated()`, built on it, the single gating policy
///     tools/obs_trend applies to flat record keys (`gate` against a
///     rolling baseline, `diff` against one record).
/// Adding or renaming a metric therefore means editing exactly one row.

#include <string_view>

#include "obs/metrics.h"

namespace subscale::obs::names {

/// What instrument a schema row registers (and how its flat record keys
/// gate): histograms flatten to "<name>.count"/"<name>.sum" in BENCH
/// and perfdb records, and a latency histogram's .sum is wall clock —
/// never regression-gated.
enum class MetricKind {
  kCounter,
  kGauge,
  kLatencyHistogram,    ///< buckets::kLatencyMs; .sum is timing
  kIterationHistogram,  ///< buckets::kIterations; .sum is effort
};

/// Whether the regression gates compare the metric at all. Exempt rows
/// are environment- or scheduling-dependent (thread counts, what past
/// runs left in a cache dir, client arrival timing) — comparing them
/// would gate noise, not solver effort. See DESIGN.md §16.2.
enum class GatePolicy { kGated, kExempt };

// clang-format off
/// One row per instrument: X(<constant>, "<wire name>", <kind>, <gate>).
/// Rationale for the Exempt rows:
///   * exec.pool.*  — thread-count-dependent by nature (DESIGN.md §10.3),
///   * *.last_residual — a gauge of the final solve, not effort,
///   * cache.*      — hit/miss/store totals depend on what past runs
///                    left in SUBSCALE_CACHE_DIR, not the change under
///                    test,
///   * orch.*       — claim/reassign/poison traffic depends on
///                    scheduling, lease timeouts and chaos policy,
///   * serve.*      — request/throttle/coalesce traffic depends on
///                    client arrival timing.
#define SUBSCALE_OBS_SCHEMA(X)                                                \
  /* exec layer */                                                            \
  X(kPoolPools, "exec.pool.pools", kCounter, kExempt)                         \
  X(kPoolTasksRun, "exec.pool.tasks_run", kCounter, kExempt)                  \
  X(kPoolQueueDepthMax, "exec.pool.queue_depth_max", kGauge, kExempt)         \
  X(kPoolUtilizationPct, "exec.pool.utilization_pct", kGauge, kExempt)        \
  /* tcad layer — Gummel outer loop and its stages */                         \
  X(kGummelSolves, "tcad.gummel.solves", kCounter, kGated)                    \
  X(kGummelOuterIterations, "tcad.gummel.outer_iterations", kCounter, kGated) \
  X(kGummelContinuationSteps, "tcad.gummel.continuation_steps", kCounter, kGated) \
  X(kGummelRetries, "tcad.gummel.retries", kCounter, kGated)                  \
  X(kGummelStepHalvings, "tcad.gummel.step_halvings", kCounter, kGated)       \
  X(kGummelDampingTightenings, "tcad.gummel.damping_tightenings", kCounter, kGated) \
  X(kGummelRollbacks, "tcad.gummel.rollbacks", kCounter, kGated)              \
  X(kGummelFaultsInjected, "tcad.gummel.faults_injected", kCounter, kGated)   \
  X(kGummelFailedSolves, "tcad.gummel.failed_solves", kCounter, kGated)       \
  X(kGummelLastResidual, "tcad.gummel.last_residual", kGauge, kExempt)        \
  X(kGummelIterationsPerSolve, "tcad.gummel.iterations_per_solve", kIterationHistogram, kGated) \
  X(kPoissonNewtonIterations, "tcad.poisson.newton_iterations", kCounter, kGated) \
  X(kPoissonFactorizations, "tcad.poisson.factorizations", kCounter, kGated) \
  X(kContinuitySolves, "tcad.continuity.solves", kCounter, kGated)            \
  X(kContinuityClampedNodes, "tcad.continuity.clamped_nodes", kCounter, kGated) \
  X(kLinalgBandEntries, "tcad.linalg.band_entries", kCounter, kGated)         \
  /* tcad layer — mesh continuation */                                        \
  X(kMeshContLevels, "tcad.meshcont.levels", kCounter, kGated)                \
  X(kMeshContProlongations, "tcad.meshcont.prolongations", kCounter, kGated)  \
  X(kMeshContFallbacks, "tcad.meshcont.fallbacks", kCounter, kGated)          \
  /* tcad layer — bias sweeps */                                              \
  X(kSweepPointsAttempted, "tcad.sweep.points_attempted", kCounter, kGated)   \
  X(kSweepPointsConverged, "tcad.sweep.points_converged", kCounter, kGated)   \
  X(kSweepPointsFailed, "tcad.sweep.points_failed", kCounter, kGated)         \
  X(kSweepPointMs, "tcad.sweep.point_ms", kLatencyHistogram, kGated)          \
  /* core layer — study-level fan-out */                                      \
  X(kStudyNodesValidated, "core.study.nodes_validated", kCounter, kGated)     \
  X(kStudyNodeErrors, "core.study.node_errors", kCounter, kGated)             \
  X(kStudySweepPointFailures, "core.study.sweep_point_failures", kCounter, kGated) \
  X(kStudyNodeMs, "core.study.node_ms", kLatencyHistogram, kGated)            \
  /* cache layer — persistent solve-cache traffic */                          \
  X(kCacheHit, "cache.hit", kCounter, kExempt)                                \
  X(kCacheMiss, "cache.miss", kCounter, kExempt)                              \
  X(kCacheStore, "cache.store", kCounter, kExempt)                            \
  X(kCacheEvict, "cache.evict", kCounter, kExempt)                            \
  X(kCacheWarmstart, "cache.warmstart", kCounter, kExempt)                    \
  X(kCacheCorrupt, "cache.corrupt", kCounter, kExempt)                        \
  /* orch layer — multi-process study orchestration (src/orch) */             \
  X(kOrchUnitsTotal, "orch.units_total", kCounter, kExempt)                   \
  X(kOrchClaimed, "orch.claimed", kCounter, kExempt)                          \
  X(kOrchCompleted, "orch.completed", kCounter, kExempt)                      \
  X(kOrchReassigned, "orch.reassigned", kCounter, kExempt)                    \
  X(kOrchPoisoned, "orch.poisoned", kCounter, kExempt)                        \
  X(kOrchWorkerRestarts, "orch.worker_restarts", kCounter, kExempt)           \
  /* circuits layer — inverter VTC, DC and transient Newton effort */        \
  X(kVtcSolves, "circuits.vtc.solves", kCounter, kGated)                      \
  X(kVtcNewtonIterations, "circuits.vtc.newton_iterations", kCounter, kGated) \
  X(kDcSolves, "circuits.dc.solves", kCounter, kGated)                        \
  X(kDcNewtonIterations, "circuits.dc.newton_iterations", kCounter, kGated)   \
  X(kDcFailures, "circuits.dc.failures", kCounter, kGated)                    \
  X(kTranSteps, "circuits.tran.steps", kCounter, kGated)                      \
  X(kTranNewtonIterations, "circuits.tran.newton_iterations", kCounter, kGated) \
  /* cards layer — technology-deck traffic */                                 \
  X(kCardsLoads, "cards.loads", kCounter, kGated)                             \
  X(kCardsBackendDispatches, "cards.backend_dispatches", kCounter, kGated)    \
  /* serve layer — the design-query daemon (src/serve) */                     \
  X(kServeRequests, "serve.requests", kCounter, kExempt)                      \
  X(kServeExecuted, "serve.executed", kCounter, kExempt)                      \
  X(kServeCoalesced, "serve.coalesced", kCounter, kExempt)                    \
  X(kServeErrors, "serve.errors", kCounter, kExempt)                          \
  X(kServeThrottled, "serve.throttled", kCounter, kExempt)                    \
  X(kServeRejected, "serve.rejected", kCounter, kExempt)                      \
  X(kServeClients, "serve.clients", kCounter, kExempt)                        \
  X(kServeQueueDepthMax, "serve.queue_depth_max", kGauge, kExempt)            \
  X(kServeRequestMs, "serve.request_ms", kLatencyHistogram, kExempt)          \
  /* obs layer — span-profiler export tallies */                              \
  X(kProfilerSpans, "obs.profiler.spans", kCounter, kGated)                   \
  X(kProfilerSpansDropped, "obs.profiler.spans_dropped", kCounter, kGated)
// clang-format on

// The named constants every call site uses, generated from the table.
#define SUBSCALE_OBS_DECLARE_NAME(ident, name, kind, gate) \
  inline constexpr const char* ident = name;
SUBSCALE_OBS_SCHEMA(SUBSCALE_OBS_DECLARE_NAME)
#undef SUBSCALE_OBS_DECLARE_NAME

/// One schema row, queryable at runtime (obs_trend gating and schema
/// checks, the perfdb rollup layer).
struct MetricDef {
  const char* name;
  MetricKind kind;
  GatePolicy gate;

  bool is_histogram() const {
    return kind == MetricKind::kLatencyHistogram ||
           kind == MetricKind::kIterationHistogram;
  }
};

inline constexpr MetricDef kStandardSchema[] = {
#define SUBSCALE_OBS_DEF_ROW(ident, name, kind, gate) \
  {name, MetricKind::kind, GatePolicy::gate},
    SUBSCALE_OBS_SCHEMA(SUBSCALE_OBS_DEF_ROW)
#undef SUBSCALE_OBS_DEF_ROW
};

inline constexpr std::size_t kStandardSchemaSize =
    sizeof(kStandardSchema) / sizeof(kStandardSchema[0]);

/// Touch every standard instrument so a snapshot (and the BENCH json
/// written from it) always carries the complete schema, zeros included.
inline void preregister_standard(MetricsRegistry& registry) {
  for (const MetricDef& def : kStandardSchema) {
    switch (def.kind) {
      case MetricKind::kCounter:
        registry.counter(def.name);
        break;
      case MetricKind::kGauge:
        registry.gauge(def.name);
        break;
      case MetricKind::kLatencyHistogram:
        registry.histogram(def.name, buckets::kLatencyMs);
        break;
      case MetricKind::kIterationHistogram:
        registry.histogram(def.name, buckets::kIterations);
        break;
    }
  }
}

/// Schema row for a FLAT record key — the form keys take in BENCH and
/// perfdb records, where a histogram appears as "<name>.count" and
/// "<name>.sum". Null for keys outside the standard schema.
inline const MetricDef* find_flat(std::string_view key) {
  const auto strip = [&](std::string_view suffix) -> std::string_view {
    if (key.size() > suffix.size() &&
        key.substr(key.size() - suffix.size()) == suffix) {
      return key.substr(0, key.size() - suffix.size());
    }
    return {};
  };
  const std::string_view base_count = strip(".count");
  const std::string_view base_sum = strip(".sum");
  for (const MetricDef& def : kStandardSchema) {
    const std::string_view name = def.name;
    if (name == key && !def.is_histogram()) return &def;
    if (def.is_histogram() && (name == base_count || name == base_sum)) {
      return &def;
    }
  }
  return nullptr;
}

/// THE gating predicate both regression gates share: does this flat key
/// participate? Schema rows answer from their GatePolicy/MetricKind;
/// keys outside the table (a record written by a newer binary) fall
/// back to the historical prefix/suffix heuristics so the gates degrade
/// conservatively instead of flagging noise.
inline bool regression_gated(std::string_view key) {
  const auto ends_with = [&](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.substr(key.size() - suffix.size()) == suffix;
  };
  if (const MetricDef* def = find_flat(key); def != nullptr) {
    if (def->gate == GatePolicy::kExempt) return false;
    if (def->kind == MetricKind::kLatencyHistogram && ends_with(".sum")) {
      return false;  // wall clock, not effort
    }
    return true;
  }
  const auto starts_with = [&](std::string_view prefix) {
    return key.substr(0, prefix.size()) == prefix;
  };
  if (starts_with("exec.pool.") || starts_with("cache.") ||
      starts_with("orch.") || starts_with("serve.")) {
    return false;
  }
  if (ends_with("_ms.sum")) return false;
  if (ends_with(".last_residual")) return false;
  return true;
}

/// Canonical span labels for the hierarchical profiler (obs/profiler.h).
/// Like the metric names, every instrumented layer spells its spans
/// through these constants so trace exports stay comparable across PRs.
/// Labels must be static-storage strings (the profiler stores pointers).
namespace spans {
inline constexpr const char* kTask = "exec.task";
inline constexpr const char* kStudyNode = "core.study.node";
inline constexpr const char* kSweepPoint = "tcad.sweep.point";
inline constexpr const char* kGummelEquilibrium = "tcad.gummel.equilibrium";
inline constexpr const char* kGummelBiasRamp = "tcad.gummel.bias_ramp";
inline constexpr const char* kGummelSolve = "tcad.gummel.solve";
inline constexpr const char* kGummelPoisson = "tcad.gummel.poisson";
inline constexpr const char* kGummelContinuity = "tcad.gummel.continuity";
inline constexpr const char* kMeshContCoarse = "tcad.meshcont.coarse_solve";
inline constexpr const char* kMeshContProlong = "tcad.meshcont.prolong";
inline constexpr const char* kBandedLuSolve = "linalg.banded_lu.solve";
inline constexpr const char* kBandedLdltSolve = "linalg.banded_ldlt.solve";
inline constexpr const char* kCacheLookup = "cache.lookup";
inline constexpr const char* kCachePublish = "cache.publish";
inline constexpr const char* kOrchUnit = "orch.unit";
}  // namespace spans

}  // namespace subscale::obs::names
