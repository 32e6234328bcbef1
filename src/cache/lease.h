#pragma once

/// \file lease.h
/// Crash-tolerant file primitives for multi-process coordination, used
/// by the study orchestrator (src/orch), the solve cache's disk store
/// and the perf-history store (src/perfdb). Everything here reduces to
/// two POSIX guarantees:
///
///   * open(O_CREAT|O_EXCL) is atomic — exactly one of N racing
///     processes creates the file. That is the claim: a work unit's
///     lease file exists iff some worker owns it.
///   * rename(2) within a filesystem is atomic — a reader sees the old
///     content or the new content, never a torn mix. That is the
///     heartbeat (content replaced wholesale) and the cache publish.
///
/// A lease carries no locks to leak: if its owner dies, the file simply
/// stops being refreshed, and the orchestrator detects the staleness by
/// age (lease_inspect) and deletes it. Correctness never depends on the
/// lease — the result store is content-addressed, so two workers that
/// somehow both solve a unit publish identical bytes (last-writer-wins).
/// Leases only prevent duplicated effort.
///
/// Durability: atomic_write_file fsyncs the temp file before the rename
/// by default, so a record that survives a crash is complete on the
/// platter, not just in the page cache. Only the lease heartbeat skips
/// the fsync (see lease_heartbeat); atomicity is unaffected either way.

#include <cstdint>
#include <string>
#include <vector>

namespace subscale::cache {

/// Write `bytes` to `path` atomically: temp file in the same directory
/// (same filesystem, so the rename cannot degrade to a copy), fsync
/// unless `sync` is false, rename over the target. Creates parent
/// directories. Returns false — leaving any previous file untouched — on
/// any failure.
bool atomic_write_file(const std::string& path,
                       const void* data, std::size_t size,
                       bool sync = true);
bool atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       bool sync = true);

/// Remove the temp files that atomic_write_file callers killed
/// mid-publish left anywhere under `dir`, subdirectories included.
/// Only temps older than `min_age_seconds` go: a live writer's temp
/// exists for milliseconds, so the age gate keeps the sweep safe to run
/// while other processes publish. Returns the number removed; 0 when
/// `dir` does not exist.
std::size_t sweep_stale_temps(const std::string& dir,
                              double min_age_seconds);

/// Read a whole file; false when it does not exist or cannot be read.
bool read_file_bytes(const std::string& path,
                     std::vector<std::uint8_t>& out);

// ---- leases -----------------------------------------------------------------

/// What an observer can tell about a lease file without trusting its
/// owner to still be alive.
struct LeaseInfo {
  bool exists = false;
  std::string owner;       ///< owner token written at acquire/heartbeat
  std::uint64_t beats = 0; ///< heartbeats since acquire
  double age_seconds = 0;  ///< time since the last heartbeat (file mtime)
};

/// Claim the lease: atomically create `path` (O_CREAT|O_EXCL) holding
/// `owner`. Exactly one of N concurrent callers succeeds; the rest see
/// false. Also false when the parent directory cannot be created.
bool lease_try_acquire(const std::string& path, const std::string& owner);

/// Refresh the lease: atomically replace its content with
/// (owner, beats), updating the file mtime that lease_inspect ages by.
/// The caller owns the lease; this does not re-check.
bool lease_heartbeat(const std::string& path, const std::string& owner,
                     std::uint64_t beats);

/// Observe a lease without touching it.
LeaseInfo lease_inspect(const std::string& path);

/// Drop the lease (idempotent; removing a lease that a stale-detection
/// pass already cleared is not an error).
void lease_release(const std::string& path);

}  // namespace subscale::cache
