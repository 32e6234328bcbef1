#include "cache/solve_cache.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "cache/bytes.h"
#include "cache/lease.h"
#include "obs/names.h"

namespace subscale::cache {

namespace {

constexpr std::uint32_t kMagic = 0x43425553u;  // "SUBC" little-endian

/// Consume one unit of a fault budget; returns true while any remains.
bool consume(std::atomic<long>& budget) {
  long cur = budget.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (budget.compare_exchange_weak(cur, cur - 1,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void CacheOptions::validate() const {
  const auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("CacheOptions: ") + msg);
  };
  if (fault.fail_reads < 0) fail("fault.fail_reads must be >= 0");
  if (fault.fail_writes < 0) fail("fault.fail_writes must be >= 0");
}

SolveCache::SolveCache(const CacheOptions& options)
    : dir_(options.dir),
      warm_start_(options.warm_start),
      max_entries_per_shard_(options.max_entries_per_shard) {
  options.validate();
  read_fault_budget_.store(options.fault.fail_reads,
                           std::memory_order_relaxed);
  write_fault_budget_.store(options.fault.fail_writes,
                            std::memory_order_relaxed);
  obs::MetricsRegistry* sink =
      options.metrics != nullptr ? options.metrics : obs::default_registry();
  if (sink != nullptr) {
    namespace names = obs::names;
    ins_.hit = &sink->counter(names::kCacheHit);
    ins_.miss = &sink->counter(names::kCacheMiss);
    ins_.store = &sink->counter(names::kCacheStore);
    ins_.evict = &sink->counter(names::kCacheEvict);
    ins_.warmstart = &sink->counter(names::kCacheWarmstart);
    ins_.corrupt = &sink->counter(names::kCacheCorrupt);
  }
}

std::string SolveCache::record_path(const HashKey& key) const {
  const std::string hex = key.hex();
  // 256-way shard by the first key byte keeps directories small.
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".sc";
}

std::shared_ptr<const Payload> SolveCache::lookup(const HashKey& key,
                                                  PayloadKind kind) {
  {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end() && it->second->kind == kind) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.hit != nullptr) ins_.hit->add(1);
      return it->second;
    }
  }
  if (persistent()) {
    if (std::shared_ptr<const Payload> p = read_disk(key, kind);
        p != nullptr) {
      remember(key, p);
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.hit != nullptr) ins_.hit->add(1);
      return p;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (ins_.miss != nullptr) ins_.miss->add(1);
  return nullptr;
}

void SolveCache::store(const HashKey& key, PayloadKind kind,
                       std::vector<std::uint8_t> bytes) {
  auto payload = std::make_shared<Payload>();
  payload->kind = kind;
  payload->bytes = std::move(bytes);
  if (persistent()) write_disk(key, *payload);
  remember(key, std::move(payload));
  stores_.fetch_add(1, std::memory_order_relaxed);
  if (ins_.store != nullptr) ins_.store->add(1);
}

void SolveCache::note_warmstart() {
  warmstarts_.fetch_add(1, std::memory_order_relaxed);
  if (ins_.warmstart != nullptr) ins_.warmstart->add(1);
}

void SolveCache::remember(const HashKey& key,
                          std::shared_ptr<const Payload> payload) {
  if (max_entries_per_shard_ == 0) return;
  Shard& s = shard_of(key);
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto [it, inserted] = s.map.try_emplace(key, nullptr);
    it->second = std::move(payload);
    if (inserted) {
      s.order.push_back(key);
      while (s.order.size() > max_entries_per_shard_) {
        s.map.erase(s.order.front());
        s.order.erase(s.order.begin());
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (ins_.evict != nullptr) ins_.evict->add(evicted);
  }
}

std::shared_ptr<const Payload> SolveCache::read_disk(const HashKey& key,
                                                     PayloadKind kind) {
  const std::string path = record_path(key);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return nullptr;  // plain absence: not corruption

  const auto reject = [&]() -> std::shared_ptr<const Payload> {
    std::fclose(f);
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    if (ins_.corrupt != nullptr) ins_.corrupt->add(1);
    return nullptr;
  };
  if (consume(read_fault_budget_)) return reject();

  // Header: magic u32 | version u32 | kind u32 | size u64 | fnv u64.
  std::uint8_t full_header[28];
  if (std::fread(full_header, 1, sizeof(full_header), f) !=
      sizeof(full_header)) {
    return reject();
  }
  ByteReader r(full_header, sizeof(full_header));
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t record_kind = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  if (!r.u32(magic) || !r.u32(version) || !r.u32(record_kind) ||
      !r.u64(size) || !r.u64(checksum)) {
    return reject();
  }
  if (magic != kMagic) return reject();
  if (version != kFormatVersion) return reject();  // stale schema: a miss
  if (record_kind != static_cast<std::uint32_t>(kind)) return reject();
  if (size > (1ull << 31)) return reject();  // implausible length

  auto payload = std::make_shared<Payload>();
  payload->kind = kind;
  payload->bytes.resize(static_cast<std::size_t>(size));
  if (std::fread(payload->bytes.data(), 1, payload->bytes.size(), f) !=
      payload->bytes.size()) {
    return reject();
  }
  // Trailing garbage also fails the record (the atomic-rename publish
  // never produces it; its presence means external tampering).
  std::uint8_t extra = 0;
  if (std::fread(&extra, 1, 1, f) != 0) return reject();
  std::fclose(f);
  if (fnv1a64(payload->bytes.data(), payload->bytes.size()) != checksum) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    if (ins_.corrupt != nullptr) ins_.corrupt->add(1);
    return nullptr;
  }
  return payload;
}

bool SolveCache::write_disk(const HashKey& key, const Payload& payload) {
  // An injected publish failure writes nothing.
  if (consume(write_fault_budget_)) return false;
  ByteWriter record;
  record.u32(kMagic);
  record.u32(kFormatVersion);
  record.u32(static_cast<std::uint32_t>(payload.kind));
  record.u64(payload.bytes.size());
  record.u64(fnv1a64(payload.bytes.data(), payload.bytes.size()));
  std::vector<std::uint8_t> bytes = record.take();
  bytes.insert(bytes.end(), payload.bytes.begin(), payload.bytes.end());
  // Temp + fsync + atomic rename: a concurrent reader sees the old
  // record or the new one, and a crash after the publish finds the
  // complete record on disk.
  return atomic_write_file(record_path(key), bytes);
}

std::size_t SolveCache::sweep_stale_temps(double min_age_seconds) {
  if (!persistent()) return 0;
  const std::size_t removed = cache::sweep_stale_temps(dir_, min_age_seconds);
  if (removed > 0) {
    // Torn-write debris: the records these were meant to become will
    // read as plain misses, so account them under the corruption
    // counter like any other unreadable record.
    corrupt_.fetch_add(removed, std::memory_order_relaxed);
    if (ins_.corrupt != nullptr) ins_.corrupt->add(removed);
  }
  return removed;
}

SolveCache::Stats SolveCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          stores_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed),
          warmstarts_.load(std::memory_order_relaxed),
          corrupt_.load(std::memory_order_relaxed)};
}

namespace {
SolveCache* g_default_cache = nullptr;
bool g_default_set = false;
}  // namespace

void set_default_cache(SolveCache* cache) {
  g_default_cache = cache;
  g_default_set = true;
}

SolveCache* default_cache() { return g_default_cache; }

SolveCache* install_env_cache() {
  static SolveCache* installed = [] {
    if (g_default_set) return g_default_cache;  // explicit install wins
    const char* toggle = std::getenv("SUBSCALE_CACHE");
    if (toggle != nullptr && (std::strcmp(toggle, "0") == 0 ||
                              std::strcmp(toggle, "off") == 0)) {
      return static_cast<SolveCache*>(nullptr);
    }
    const char* dir = std::getenv("SUBSCALE_CACHE_DIR");
    if (dir == nullptr && toggle == nullptr) {
      return static_cast<SolveCache*>(nullptr);
    }
    CacheOptions options;
    if (dir != nullptr) options.dir = dir;
    static SolveCache cache(options);
    set_default_cache(&cache);
    return &cache;
  }();
  return installed;
}

}  // namespace subscale::cache
