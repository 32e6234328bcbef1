#pragma once

/// \file orchestrator.h
/// The coordinator of a multi-process study run (ISSUE 6 tentpole):
/// shard the study grid into manifest units, fork N workers that claim
/// units via lease files, poll the shared content-addressed store for
/// published results, and merge them in manifest order.
///
/// Failure policy — everything reduces to the lease heartbeat:
///   * a worker that dies mid-unit stops refreshing its lease; once the
///     lease's mtime age exceeds lease_timeout_seconds the orchestrator
///     counts a reassignment (orch.reassigned) and releases the lease
///     after an exponential backoff (backoff_seconds * 2^(n-1)), so a
///     crash-looping unit is retried at a decelerating rate;
///   * a unit that exhausts retry_budget reassignments is poisoned —
///     a marker file records the reason, orch.poisoned counts it, and
///     the merged output carries the unit as "poisoned" instead of
///     wedging the study;
///   * a dead worker process is reaped and, while claimable work
///     remains, respawned with chaos disarmed (orch.worker_restarts) so
///     a chaos run is guaranteed to terminate.
///
/// Checkpoint/resume needs no checkpoint file: results ARE the
/// checkpoint. A rerun scans the manifest against the cache, counts
/// each hit as completed (orch.completed), and spawns workers only for
/// the remainder; a fully-published study spawns nothing and
/// orch.claimed stays 0 — the property the resume smoke test asserts.
///
/// workers == 0 runs every remaining unit serially in-process through
/// the identical solve_unit path: the bitwise reference the chaos tier
/// diffs multi-process merges against.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/run_context.h"
#include "orch/manifest.h"
#include "orch/unit_runner.h"
#include "orch/worker.h"

namespace subscale::orch {

struct OrchOptions {
  /// Worker process count; 0 = solve serially in this process (no
  /// forks, no leases — the reference path).
  std::size_t workers = 0;
  std::string study_dir;  ///< lease/poison/manifest coordination state
  std::string cache_dir;  ///< shared content-addressed result store
  double lease_timeout_seconds = 2.0; ///< older leases count as dead owners
  double backoff_seconds = 0.1;       ///< base reassignment delay (doubles)
  std::size_t retry_budget = 3;       ///< reassignments before poisoning
  double deadline_seconds = 600.0;    ///< hard stop for a wedged study
  ChaosPolicy chaos;        ///< armed into initially spawned workers
  bool rearm_chaos = false; ///< also arm respawned workers (tests only:
                            ///< with kill_after_units > 0 this can loop
                            ///< until units poison)
  /// Path to a subscale_worker binary to exec; empty forks this process
  /// and calls worker_main in the child (hermetic, no binary needed).
  std::string worker_exe;
  exec::RunContext run{};  ///< orchestrator-side telemetry (orch.* counters)

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// What happened to one manifest unit.
struct UnitOutcome {
  std::size_t unit = 0;
  bool completed = false;
  bool resumed = false;  ///< already published before this run started
  bool poisoned = false;
  std::size_t reassignments = 0;
  UnitResult result;  ///< valid when completed
};

/// Aggregate counters of one run_study call (mirrors the orch.*
/// metrics, which accumulate across runs in the registry).
struct OrchReport {
  std::size_t units_total = 0;
  std::size_t claimed = 0;    ///< serial mode: units solved in-process
  std::size_t completed = 0;  ///< published units, resumed hits included
  std::size_t resumed = 0;    ///< completed before this run started
  std::size_t reassigned = 0;
  std::size_t poisoned = 0;
  std::size_t worker_restarts = 0;
  bool deadline_hit = false;
};

struct StudyResult {
  Manifest manifest;
  std::vector<UnitOutcome> outcomes;  ///< one per manifest unit, in order
  OrchReport report;

  /// Every unit published (nothing poisoned, nothing missing).
  bool complete() const;
  /// Canonical merged JSON (unit_runner.h study_result_json) — the
  /// artifact two runs of the same manifest are compared on, byte for
  /// byte.
  std::string json() const;
};

/// Run (or resume) the study described by `manifest`. Blocking; returns
/// once every unit is completed or poisoned, or the deadline passes
/// (remaining units are then poisoned with reason "deadline").
StudyResult run_study(const Manifest& manifest, const OrchOptions& options);

/// Atomic-rename publish of result.json(); false on I/O failure.
bool write_study_result(const std::string& path, const StudyResult& result);

}  // namespace subscale::orch
