#pragma once

/// \file solve_cache.h
/// Persistent, content-addressed result cache for TCAD solves and study
/// nodes. Records are addressed by a 128-bit canonical content hash
/// (cache/hash.h) of everything that determines the result — device
/// structure, mesh spec, solver options, bias point — so two runs that
/// pose the same problem read the same record, and any physical change
/// moves to a fresh key (there is no invalidation protocol to get
/// wrong; stale keys simply stop being asked for).
///
/// Layout:
///   * a sharded in-memory index (16 shards, each its own mutex) holds
///     decoded payloads behind shared_ptr, FIFO-capped per shard with
///     eviction accounting;
///   * an optional disk store under CacheOptions::dir backs the index:
///     one file per record, sharded into 256 subdirectories by the
///     first key byte, published through cache::atomic_write_file
///     (cache/lease.h: temp beside the record + fsync + atomic rename)
///     so a concurrent reader sees either the whole record or none of
///     it, and a record that survives a crash is complete on disk.
///     A writer killed mid-publish leaves only a torn
///     `<hex>.sc.tmp-<pid>-<seq>` beside the record, which
///     sweep_stale_temps() later removes and counts as corruption.
///
/// On-disk record format (little-endian):
///   magic "SUBC" | format_version u32 | kind u32 | payload_size u64 |
///   payload FNV-1a-64 u64 | payload bytes
/// A reader rejects — and reports as a plain miss — anything that does
/// not parse bit-for-bit: wrong magic, unknown (version-bumped) format,
/// kind mismatch, truncated payload, checksum mismatch. Corrupt records
/// are counted (cache.corrupt) and left for the writer to replace via
/// the normal store path; they are never propagated.
///
/// Telemetry: hit/miss/store/evict/corrupt land both in internal atomic
/// stats (always on, test-visible) and in the obs counters cache.* when
/// a registry is resolvable at construction.
///
/// Fault injection: CacheOptions::fault deterministically fails the
/// next N disk reads and/or publishes, mirroring GummelOptions::fault —
/// the robustness tests drive the corruption paths through it without
/// touching real files.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hash.h"
#include "obs/metrics.h"

namespace subscale::cache {

/// What a record holds; stored in the header and checked on lookup so a
/// key collision across kinds (or a caller bug) reads as a miss, never
/// as a misparse. 4 is retired (it held opt-layer scalars); the values
/// are on disk, so none is renumbered.
enum class PayloadKind : std::uint32_t {
  kSweep = 1,      ///< a full TcadDevice::id_vg result
  kState = 2,      ///< solver state (biases, psi, n, p) at one bias point
  kBiasIndex = 3,  ///< per-device list of cached bias-state points
  kUnit = 5,       ///< one orchestrator work-unit result (src/orch)
};

struct Payload {
  PayloadKind kind = PayloadKind::kSweep;
  std::vector<std::uint8_t> bytes;
};

/// Deterministic fault injection for the robustness tests: while a
/// budget remains, the next disk read parses as corrupt / the next
/// publish writes nothing. Mirrors GummelOptions::fault in spirit:
/// counts down, then heals.
struct CacheFault {
  long fail_reads = 0;
  long fail_writes = 0;
};

struct CacheOptions {
  /// Disk store root; empty = in-memory only (still a useful
  /// process-lifetime cache). Created on demand.
  std::string dir;
  /// Allow call sites to seed a solver from the nearest cached bias
  /// state when the exact record misses. Within-tolerance, not bitwise —
  /// see DESIGN.md §12.4.
  bool warm_start = true;
  /// FIFO cap per in-memory shard (16 shards). 0 keeps nothing in
  /// memory (every lookup goes to disk) — useful in tests.
  std::size_t max_entries_per_shard = 512;
  CacheFault fault{};
  /// Telemetry sink; null falls back to obs::default_registry().
  obs::MetricsRegistry* metrics = nullptr;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

class SolveCache {
 public:
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Validates the options; does not touch the filesystem yet (the
  /// directory is created on first store).
  explicit SolveCache(const CacheOptions& options = {});

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// The record at `key`, or null on miss. A record whose kind differs
  /// from `kind` — or whose disk image fails any header/checksum test —
  /// is a miss.
  std::shared_ptr<const Payload> lookup(const HashKey& key,
                                        PayloadKind kind);

  /// Publish a record (memory index + disk when persistent). Replaces
  /// any existing record at the key.
  void store(const HashKey& key, PayloadKind kind,
             std::vector<std::uint8_t> bytes);

  /// Bump the warm-start counter (the cache cannot see which lookups
  /// seeded a solver, so the call site reports it).
  void note_warmstart();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t warmstarts = 0;
    std::uint64_t corrupt = 0;  ///< disk records rejected as unreadable
  };
  Stats stats() const;

  bool persistent() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  bool warm_start_enabled() const { return warm_start_; }

  /// Path the record for `key` lives at (even if absent) — test hook
  /// for the corruption suite.
  std::string record_path(const HashKey& key) const;

  /// Remove torn temp files left in the shard directories by writers
  /// that died mid-publish (a SIGKILLed worker, a crashed bench), via
  /// cache::sweep_stale_temps. Only temps older than `min_age_seconds`
  /// are touched — a live writer's temp exists for milliseconds, so the
  /// age gate keeps the sweep safe to run while other processes
  /// publish. Each removal is counted as corruption
  /// (cache.corrupt): the debris is evidence of a torn write, and the
  /// record it was meant to become reads as a plain miss. Returns the
  /// number of temps removed; no-op (0) for in-memory caches.
  std::size_t sweep_stale_temps(double min_age_seconds = 60.0);

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    // FIFO over insertion order backs the eviction cap.
    std::vector<HashKey> order;
    std::unordered_map<HashKey, std::shared_ptr<const Payload>,
                       HashKeyHasher>
        map;
  };

  Shard& shard_of(const HashKey& key) {
    return shards_[key.lo % kShards];
  }
  void remember(const HashKey& key, std::shared_ptr<const Payload> payload);
  std::shared_ptr<const Payload> read_disk(const HashKey& key,
                                           PayloadKind kind);
  bool write_disk(const HashKey& key, const Payload& payload);

  std::string dir_;
  bool warm_start_ = true;
  std::size_t max_entries_per_shard_ = 512;
  Shard shards_[kShards];

  std::atomic<long> read_fault_budget_{0};
  std::atomic<long> write_fault_budget_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> warmstarts_{0};
  std::atomic<std::uint64_t> corrupt_{0};

  struct Instruments {
    obs::Counter* hit = nullptr;
    obs::Counter* miss = nullptr;
    obs::Counter* store = nullptr;
    obs::Counter* evict = nullptr;
    obs::Counter* warmstart = nullptr;
    obs::Counter* corrupt = nullptr;
  };
  Instruments ins_;
};

/// Process-wide default cache, mirroring obs::default_registry(): null
/// until installed; RunContext::cache_sink() falls back to it.
void set_default_cache(SolveCache* cache);
SolveCache* default_cache();

/// Build and install the process default from the environment, once:
///   * SUBSCALE_CACHE=0|off           -> caching disabled (null),
///   * SUBSCALE_CACHE_DIR=<path>      -> persistent cache at <path>,
///   * SUBSCALE_CACHE=1 (and no dir)  -> in-memory process cache,
///   * neither variable               -> null (caching off).
/// Returns the installed cache (or null). Idempotent; an explicit
/// set_default_cache() before the first call wins.
SolveCache* install_env_cache();

}  // namespace subscale::cache
