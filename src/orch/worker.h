#pragma once

/// \file worker.h
/// The worker side of a multi-process study: scan the manifest, claim
/// unsolved units via lease files, solve each through the normal
/// RunContext + SolveCache path, publish into the shared store, release
/// the lease, repeat until a full scan finds nothing claimable. A
/// worker is a child the orchestrator forks; it runs worker_main on the
/// manifest it inherited in memory.
///
/// Crash stance (FDB-style): a worker may die at ANY instruction —
/// that is the chaos tier's whole premise — so nothing a worker does is
/// load-bearing for correctness. A death after claim leaves a lease
/// that goes stale (the orchestrator reaps it); a death mid-publish
/// leaves a torn temp file (swept and counted as a miss); a death
/// after publish just wastes the lease. The one graceful path, SIGTERM,
/// releases the in-flight lease from an async-signal-safe handler so an
/// orchestrator shutdown does not cost a lease timeout.
///
/// Workers run the solver single-threaded and construct their cache
/// with warm starts disabled: the bias warm start is the library's one
/// within-tolerance (not bitwise) accelerator, and the orchestrator's
/// contract is that a merged multi-process study equals the serial
/// reference bit for bit.

#include <cstdint>
#include <string>

#include "orch/manifest.h"

namespace subscale::orch {

/// Deterministic self-destruction for the chaos tier. An armed worker
/// kills itself mid-unit while working on its kill_after_units-th
/// claimed unit; `seed` (hashed with the unit index) picks which of the
/// three in-unit phases the death lands on, so one knob sweeps claim /
/// post-equilibrium / solved-but-unpublished crash sites reproducibly.
struct ChaosPolicy {
  std::size_t kill_after_units = 0;  ///< 0 = chaos off
  bool sigkill = true;  ///< false: SIGTERM instead (graceful-release path)
  std::uint64_t seed = 0;

  bool armed() const { return kill_after_units > 0; }
};

/// The in-unit crash site chaos picked: 0 = immediately after the
/// claim, 1 = after equilibrium, 2 = solved but not yet published.
/// Exposed so tests can assert which site a given seed exercises.
std::size_t chaos_kill_phase(const ChaosPolicy& chaos, std::size_t unit_index);

/// Lease refresh period of a worker while it solves [s]. The
/// orchestrator's lease timeout must exceed it (OrchOptions::validate).
inline constexpr double kHeartbeatSeconds = 0.2;

struct WorkerOptions {
  std::string study_dir;  ///< lease/poison coordination directory
  std::string cache_dir;  ///< shared content-addressed result store
  std::string worker_id;  ///< lease owner tag; empty = "pid-<pid>"
  ChaosPolicy chaos;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Run the claim/solve/publish loop over `manifest` until nothing is
/// claimable (every unit is published, poisoned, or leased by someone
/// else). Returns a process exit code: 0 on a clean drain, 2 on setup
/// failure (bad options / unusable cache dir).
int worker_main(const Manifest& manifest, const WorkerOptions& options);

}  // namespace subscale::orch
