#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/bytes.h"
#include "cache/hash.h"
#include "cache/lease.h"
#include "cache/solve_cache.h"
#include "cache/tcad_keys.h"
#include "compact/device_spec.h"
#include "exec/run_context.h"
#include "tcad/device_sim.h"

namespace fs = std::filesystem;
namespace sca = subscale::cache;
namespace sc = subscale::compact;
namespace sd = subscale::doping;
namespace se = subscale::exec;
namespace st = subscale::tcad;

namespace {

/// Unique on-disk cache root, removed on scope exit.
struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-test-cache-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
  }
  ~TempCacheDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

sca::CacheOptions disk_options(const TempCacheDir& dir) {
  sca::CacheOptions opt;
  opt.dir = dir.str();
  return opt;
}

std::vector<std::uint8_t> some_bytes(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return out;
}

sca::HashKey key_of(std::uint64_t salt) {
  sca::KeyHasher h;
  h.tag("test.key").u64(salt);
  return h.key();
}

/// The paper's 90nm super-V_th NFET (Table 2) on a coarse mesh — the
/// cheapest real TCAD problem the suite has.
sc::DeviceSpec nfet_90() {
  return sc::make_spec_from_table(sd::Polarity::kNfet, 65, 2.10, 1.52e18,
                                  3.63e18, 1.2, 1.0);
}

}  // namespace

// ---- float canonicalization ------------------------------------------------

TEST(CacheHash, NegativeZeroCanonicalizesToPositiveZero) {
  EXPECT_EQ(sca::canonical_f64_bits(-0.0), sca::canonical_f64_bits(0.0));
  sca::KeyHasher a;
  a.tag("x").f64(-0.0);
  sca::KeyHasher b;
  b.tag("x").f64(0.0);
  EXPECT_EQ(a.key(), b.key());
}

TEST(CacheHash, AllNansCanonicalizeToOnePattern) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  EXPECT_EQ(sca::canonical_f64_bits(qnan), sca::canonical_f64_bits(snan));
  EXPECT_EQ(sca::canonical_f64_bits(-qnan), sca::canonical_f64_bits(qnan));
  // ... but NaN is still distinct from every number.
  EXPECT_NE(sca::canonical_f64_bits(qnan), sca::canonical_f64_bits(0.0));
}

TEST(CacheHash, DistinctValuesDistinctBits) {
  EXPECT_NE(sca::canonical_f64_bits(1.0), sca::canonical_f64_bits(2.0));
  EXPECT_NE(sca::canonical_f64_bits(1.0),
            sca::canonical_f64_bits(std::nextafter(1.0, 2.0)));
  // Signed nonzero values keep their sign.
  EXPECT_NE(sca::canonical_f64_bits(-1.0), sca::canonical_f64_bits(1.0));
}

// ---- key properties ---------------------------------------------------------

TEST(CacheHash, KeysAreDeterministic) {
  EXPECT_EQ(key_of(42), key_of(42));
  EXPECT_NE(key_of(42), key_of(43));
}

TEST(CacheHash, TagsPreventFieldAliasing) {
  sca::KeyHasher a;
  a.tag("first").f64(1.0).tag("second").f64(2.0);
  sca::KeyHasher b;
  b.tag("first").f64(2.0).tag("second").f64(1.0);
  EXPECT_NE(a.key(), b.key());
}

TEST(CacheHash, SeededChainingDiffersFromFresh) {
  const sca::HashKey seed = key_of(1);
  sca::KeyHasher chained(seed);
  chained.tag("x").f64(3.0);
  sca::KeyHasher fresh;
  fresh.tag("x").f64(3.0);
  EXPECT_NE(chained.key(), fresh.key());
}

TEST(CacheTcadKeys, EquivalentInputsHashEqual) {
  const sc::DeviceSpec spec = nfet_90();
  const st::MeshOptions mesh = st::kCoarseMesh;
  const st::GummelOptions gummel;
  EXPECT_EQ(sca::device_solve_key(spec, mesh, gummel),
            sca::device_solve_key(spec, mesh, gummel));

  // Fault injection is NOT part of the key (call sites bypass the cache
  // while it is armed).
  st::GummelOptions faulted = gummel;
  faulted.fault.stage = st::SolveStage::kPoisson;
  faulted.fault.count = 3;
  EXPECT_EQ(sca::device_solve_key(spec, mesh, gummel),
            sca::device_solve_key(spec, mesh, faulted));
}

TEST(CacheTcadKeys, EverySpecFieldPerturbsTheKey) {
  const sc::DeviceSpec base = nfet_90();
  const st::MeshOptions mesh = st::kCoarseMesh;
  const st::GummelOptions gummel;
  const sca::HashKey base_key = sca::device_solve_key(base, mesh, gummel);

  const auto differs = [&](const sc::DeviceSpec& s) {
    return sca::device_solve_key(s, mesh, gummel) != base_key;
  };
  sc::DeviceSpec s = base;
  s.polarity = sd::Polarity::kPfet;
  EXPECT_TRUE(differs(s));
  s = base;
  s.vdd += 0.01;
  EXPECT_TRUE(differs(s));
  s = base;
  s.temperature += 1.0;
  EXPECT_TRUE(differs(s));
  s = base;
  s.width *= 2.0;
  EXPECT_TRUE(differs(s));
  // Geometry fields.
  s = base;
  s.geometry.lpoly *= 1.01;
  EXPECT_TRUE(differs(s));
  s = base;
  s.geometry.tox *= 1.01;
  EXPECT_TRUE(differs(s));
  s = base;
  s.geometry.xj *= 1.01;
  EXPECT_TRUE(differs(s));
  s = base;
  s.geometry.feature_shrink *= 1.01;
  EXPECT_TRUE(differs(s));
  // Doping levels.
  s = base;
  s.levels.nsub *= 1.01;
  EXPECT_TRUE(differs(s));
  s = base;
  s.levels.np_halo += 1e20;
  EXPECT_TRUE(differs(s));
  s = base;
  s.levels.nsd *= 1.01;
  EXPECT_TRUE(differs(s));
  // Backend discrimination: a cached bulk solve must never serve a
  // nanowire query, and the wire radius is physics-bearing.
  s = base;
  s.backend = sc::BackendKind::kNanowireGaa;
  EXPECT_TRUE(differs(s));
  s = base;
  s.nw_radius *= 1.5;
  EXPECT_TRUE(differs(s));
}

TEST(CacheTcadKeys, MeshAndSolverOptionsPerturbTheKey) {
  const sc::DeviceSpec spec = nfet_90();
  const st::MeshOptions mesh = st::kCoarseMesh;
  const st::GummelOptions gummel;
  const sca::HashKey base_key = sca::device_solve_key(spec, mesh, gummel);

  st::MeshOptions m = mesh;
  m.surface_spacing *= 1.5;
  EXPECT_NE(sca::device_solve_key(spec, m, gummel), base_key);
  m = mesh;
  m.oxide_layers += 1;
  EXPECT_NE(sca::device_solve_key(spec, m, gummel), base_key);

  st::GummelOptions g;
  g.psi_tolerance *= 0.5;
  EXPECT_NE(sca::device_solve_key(spec, mesh, g), base_key);
  g = st::GummelOptions{};
  g.max_iterations += 1;
  EXPECT_NE(sca::device_solve_key(spec, mesh, g), base_key);
}

TEST(CacheTcadKeys, DerivedKeysAreDistinct) {
  const sca::HashKey dev =
      sca::device_solve_key(nfet_90(), st::kCoarseMesh, {});
  const sca::HashKey sweep = sca::sweep_key(dev, 0.25, 0.0, 0.45, 10);
  const sca::HashKey state = sca::state_key(dev, 0.0, 0.0, 0.0, 0.0);
  const sca::HashKey index = sca::bias_index_key(dev);
  EXPECT_NE(sweep, dev);
  EXPECT_NE(state, dev);
  EXPECT_NE(index, dev);
  EXPECT_NE(sweep, state);
  EXPECT_NE(state, index);
  // The bias grid is part of a sweep's identity.
  EXPECT_NE(sca::sweep_key(dev, 0.25, 0.0, 0.45, 11), sweep);
  EXPECT_NE(sca::sweep_key(dev, 0.30, 0.0, 0.45, 10), sweep);
}

// ---- byte codec robustness --------------------------------------------------

TEST(CacheBytes, RoundTrip) {
  sca::ByteWriter w;
  w.u32(0xdeadbeefu);
  w.u64(1ull << 60);
  w.f64(-0.0);
  w.str("gate");
  w.f64_vector({1.0, 2.5, -3.75});
  const std::vector<std::uint8_t> bytes = w.take();

  sca::ByteReader r(bytes);
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  double c = 1.0;
  std::string s;
  std::vector<double> v;
  ASSERT_TRUE(r.u32(a));
  ASSERT_TRUE(r.u64(b));
  ASSERT_TRUE(r.f64(c));
  ASSERT_TRUE(r.str(s));
  ASSERT_TRUE(r.f64_vector(v));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 1ull << 60);
  EXPECT_TRUE(std::signbit(c));  // payloads are raw bits, not canonical
  EXPECT_EQ(s, "gate");
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.5, -3.75}));
}

TEST(CacheBytes, TruncationFailsCleanly) {
  sca::ByteWriter w;
  w.f64_vector(std::vector<double>(16, 1.0));
  std::vector<std::uint8_t> bytes = w.take();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 std::size_t{8}, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    sca::ByteReader r(cut);
    std::vector<double> v;
    EXPECT_FALSE(r.f64_vector(v)) << "kept " << keep << " bytes";
  }
}

TEST(CacheBytes, HugeLengthPrefixRejectedBeforeAllocation) {
  sca::ByteWriter w;
  w.u64(~0ull);  // claims 2^64-1 elements
  const std::vector<std::uint8_t> bytes = w.bytes();
  sca::ByteReader r(bytes);
  std::vector<double> v;
  EXPECT_FALSE(r.f64_vector(v));
  sca::ByteReader r2(bytes);
  std::string s;
  EXPECT_FALSE(r2.str(s));
}

// ---- in-memory cache --------------------------------------------------------

TEST(SolveCache, MemoryRoundTrip) {
  sca::SolveCache cache{sca::CacheOptions{}};
  EXPECT_FALSE(cache.persistent());
  const sca::HashKey key = key_of(1);
  EXPECT_EQ(cache.lookup(key, sca::PayloadKind::kState), nullptr);

  cache.store(key, sca::PayloadKind::kState, some_bytes(24));
  const auto hit = cache.lookup(key, sca::PayloadKind::kState);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, sca::PayloadKind::kState);
  EXPECT_EQ(hit->bytes, some_bytes(24));

  // A kind mismatch is a miss, never a misparse.
  EXPECT_EQ(cache.lookup(key, sca::PayloadKind::kSweep), nullptr);

  const sca::SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(SolveCache, FifoEvictionIsAccounted) {
  sca::CacheOptions opt;
  opt.max_entries_per_shard = 2;
  sca::SolveCache cache{opt};
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.store(key_of(i), sca::PayloadKind::kState, some_bytes(8));
  }
  const sca::SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.stores, 64u);
  // 64 keys over 16 shards with cap 2 must evict.
  EXPECT_GT(stats.evictions, 0u);
  // Memory-only: an evicted record is gone for good.
  std::size_t present = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (cache.lookup(key_of(i), sca::PayloadKind::kState) != nullptr) {
      ++present;
    }
  }
  EXPECT_LE(present, 32u);
}

// ---- persistent cache -------------------------------------------------------

TEST(SolveCache, DiskRoundTripAcrossInstances) {
  TempCacheDir dir;
  const sca::HashKey key = key_of(5);
  {
    sca::SolveCache writer{disk_options(dir)};
    EXPECT_TRUE(writer.persistent());
    writer.store(key, sca::PayloadKind::kSweep, some_bytes(100));
    EXPECT_TRUE(fs::exists(writer.record_path(key)));
  }
  sca::SolveCache reader{disk_options(dir)};
  const auto hit = reader.lookup(key, sca::PayloadKind::kSweep);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bytes, some_bytes(100));
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(SolveCache, EvictedRecordsSurviveOnDisk) {
  TempCacheDir dir;
  sca::CacheOptions opt = disk_options(dir);
  opt.max_entries_per_shard = 0;  // keep nothing in memory
  sca::SolveCache cache{opt};
  const sca::HashKey key = key_of(9);
  cache.store(key, sca::PayloadKind::kState, some_bytes(40));
  const auto hit = cache.lookup(key, sca::PayloadKind::kState);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bytes, some_bytes(40));
}

TEST(SolveCache, StoreReplacesExistingRecord) {
  TempCacheDir dir;
  sca::SolveCache cache{disk_options(dir)};
  const sca::HashKey key = key_of(11);
  cache.store(key, sca::PayloadKind::kState, some_bytes(8, 1));
  cache.store(key, sca::PayloadKind::kState, some_bytes(8, 2));
  const auto hit = cache.lookup(key, sca::PayloadKind::kState);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bytes, some_bytes(8, 2));
}

// ---- corruption robustness --------------------------------------------------

namespace {

/// Store one record on disk and return its path; the cache instance
/// keeps nothing in memory so every lookup re-reads the file.
struct DiskRecord {
  TempCacheDir dir;
  sca::SolveCache cache;
  sca::HashKey key = key_of(77);
  std::string path;

  DiskRecord() : cache([this] {
                   sca::CacheOptions opt;
                   opt.dir = dir.str();
                   opt.max_entries_per_shard = 0;
                   return opt;
                 }()) {
    cache.store(key, sca::PayloadKind::kSweep, some_bytes(64));
    path = cache.record_path(key);
  }
};

void overwrite_file(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

TEST(SolveCacheCorruption, TruncatedRecordIsAMiss) {
  DiskRecord rec;
  const std::vector<std::uint8_t> good = read_file(rec.path);
  ASSERT_GT(good.size(), 28u);
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{10}, std::size_t{28}, good.size() - 1}) {
    overwrite_file(rec.path,
                   {good.begin(), good.begin() + static_cast<long>(keep)});
    EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr)
        << "kept " << keep << " of " << good.size() << " bytes";
  }
  EXPECT_GT(rec.cache.stats().corrupt, 0u);
}

TEST(SolveCacheCorruption, ZeroLengthRecordIsAMiss) {
  DiskRecord rec;
  overwrite_file(rec.path, {});
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
  EXPECT_GT(rec.cache.stats().corrupt, 0u);
}

TEST(SolveCacheCorruption, VersionBumpedRecordIsAMiss) {
  DiskRecord rec;
  std::vector<std::uint8_t> bytes = read_file(rec.path);
  bytes[4] += 1;  // format_version lives right after the 4-byte magic
  overwrite_file(rec.path, bytes);
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
  EXPECT_GT(rec.cache.stats().corrupt, 0u);
}

TEST(SolveCacheCorruption, WrongMagicIsAMiss) {
  DiskRecord rec;
  std::vector<std::uint8_t> bytes = read_file(rec.path);
  bytes[0] ^= 0xff;
  overwrite_file(rec.path, bytes);
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
}

TEST(SolveCacheCorruption, FlippedPayloadBitFailsChecksum) {
  DiskRecord rec;
  std::vector<std::uint8_t> bytes = read_file(rec.path);
  bytes.back() ^= 0x01;  // payload ends the file
  overwrite_file(rec.path, bytes);
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
  EXPECT_GT(rec.cache.stats().corrupt, 0u);
}

TEST(SolveCacheCorruption, TrailingGarbageIsAMiss) {
  DiskRecord rec;
  std::vector<std::uint8_t> bytes = read_file(rec.path);
  bytes.push_back(0xaa);
  overwrite_file(rec.path, bytes);
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
}

TEST(SolveCacheCorruption, CorruptRecordIsReplacedByNextStore) {
  DiskRecord rec;
  overwrite_file(rec.path, some_bytes(13));
  EXPECT_EQ(rec.cache.lookup(rec.key, sca::PayloadKind::kSweep), nullptr);
  rec.cache.store(rec.key, sca::PayloadKind::kSweep, some_bytes(64));
  const auto hit = rec.cache.lookup(rec.key, sca::PayloadKind::kSweep);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bytes, some_bytes(64));
}

// ---- fault injection --------------------------------------------------------

TEST(SolveCacheFault, ReadFaultsCountDownThenHeal) {
  TempCacheDir dir;
  sca::CacheOptions opt = disk_options(dir);
  opt.max_entries_per_shard = 0;  // force disk reads
  opt.fault.fail_reads = 2;
  sca::SolveCache cache{opt};
  const sca::HashKey key = key_of(21);
  cache.store(key, sca::PayloadKind::kState, some_bytes(8));
  EXPECT_EQ(cache.lookup(key, sca::PayloadKind::kState), nullptr);
  EXPECT_EQ(cache.lookup(key, sca::PayloadKind::kState), nullptr);
  // Budget exhausted: the record was never actually damaged.
  EXPECT_NE(cache.lookup(key, sca::PayloadKind::kState), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 2u);
}

TEST(SolveCacheFault, WriteFaultDropsThePublish) {
  TempCacheDir dir;
  sca::CacheOptions opt = disk_options(dir);
  opt.fault.fail_writes = 1;
  const sca::HashKey key = key_of(22);
  {
    sca::SolveCache cache{opt};
    cache.store(key, sca::PayloadKind::kState, some_bytes(8));
    EXPECT_FALSE(fs::exists(cache.record_path(key)));
    // The next store heals and publishes.
    cache.store(key, sca::PayloadKind::kState, some_bytes(8));
    EXPECT_TRUE(fs::exists(cache.record_path(key)));
  }
  sca::SolveCache reader{disk_options(dir)};
  EXPECT_NE(reader.lookup(key, sca::PayloadKind::kState), nullptr);
}

// ---- options / resolution ---------------------------------------------------

TEST(CacheOptionsValidation, RejectsNegativeFaultBudgets) {
  sca::CacheOptions opt;
  opt.fault.fail_reads = -1;
  EXPECT_THROW(sca::SolveCache{opt}, std::invalid_argument);
  opt.fault.fail_reads = 0;
  opt.fault.fail_writes = -2;
  EXPECT_THROW(sca::SolveCache{opt}, std::invalid_argument);
}

TEST(RunContextCache, ExplicitCacheWinsOverDefault) {
  sca::SolveCache a{sca::CacheOptions{}};
  sca::SolveCache b{sca::CacheOptions{}};
  se::RunContext ctx;
  EXPECT_EQ(ctx.cache_sink(), sca::default_cache());
  ctx.cache = &a;
  EXPECT_EQ(ctx.cache_sink(), &a);

  sca::set_default_cache(&b);
  se::RunContext fallback;
  EXPECT_EQ(fallback.cache_sink(), &b);
  ctx.cache = &a;
  EXPECT_EQ(ctx.cache_sink(), &a);

  // no_cache beats both the explicit cache and the installed default:
  // a device built under it resolves no cache, and its sweep touches
  // neither (the benches' and the benchmark's cold timings rely on it).
  ctx.no_cache = true;
  EXPECT_EQ(ctx.cache_sink(), nullptr);
  {
    st::TcadDevice device(nfet_90(), st::kCoarseMesh, {}, ctx);
    EXPECT_EQ(device.solve_cache(), nullptr);
    EXPECT_TRUE(device.id_vg(0.25, 0.0, 0.3, 3).all_converged());
  }
  sca::set_default_cache(nullptr);
  for (const sca::SolveCache* cache : {&a, &b}) {
    const sca::SolveCache::Stats stats = cache->stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.stores, 0u);
  }
}

// ---- TCAD wiring ------------------------------------------------------------

TEST(TcadCache, DeviceResolvesCacheAndReplaysSweeps) {
  TempCacheDir dir;
  sca::SolveCache cache{disk_options(dir)};
  se::RunContext ctx;
  ctx.cache = &cache;

  st::TcadDevice cold(nfet_90(), st::kCoarseMesh, {}, ctx);
  EXPECT_EQ(cold.solve_cache(), &cache);
  const st::SweepResult fresh = cold.id_vg(0.25, 0.0, 0.3, 4);
  ASSERT_TRUE(fresh.all_converged());

  // Uncached reference: identical problem, no cache.
  st::TcadDevice plain(nfet_90(), st::kCoarseMesh, {});
  EXPECT_EQ(plain.solve_cache(), nullptr);
  const st::SweepResult reference = plain.id_vg(0.25, 0.0, 0.3, 4);

  // Second device on the same cache: equilibrium restores, sweep replays.
  const std::uint64_t hits_before = cache.stats().hits;
  st::TcadDevice warm(nfet_90(), st::kCoarseMesh, {}, ctx);
  const st::SweepResult replay = warm.id_vg(0.25, 0.0, 0.3, 4);
  EXPECT_GT(cache.stats().hits, hits_before);

  ASSERT_EQ(replay.size(), fresh.size());
  ASSERT_EQ(replay.size(), reference.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    // Bitwise: cached, replayed, and uncached curves agree exactly.
    EXPECT_EQ(replay[i].vg, fresh[i].vg);
    EXPECT_EQ(replay[i].id, fresh[i].id);
    EXPECT_EQ(replay[i].id, reference[i].id);
  }
}

TEST(TcadCache, SweepRecordIsTheSameBytesForTheSameKey) {
  // Two cold publishes of one sweep key, from two fresh devices into two
  // caches, write the same bytes (DESIGN §12.3): the record carries no
  // wall time. A replay reads wall_ms 0, since no solve ran, and every
  // other field of the cold sweep.
  TempCacheDir dir_a;
  TempCacheDir dir_b;
  sca::SolveCache a{disk_options(dir_a)};
  sca::SolveCache b{disk_options(dir_b)};
  const auto sweep_into = [](sca::SolveCache& cache) {
    se::RunContext ctx;
    ctx.cache = &cache;
    st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
    return dev.id_vg(0.25, 0.0, 0.3, 4);
  };
  const st::SweepResult cold = sweep_into(a);
  ASSERT_TRUE(cold.all_converged());
  ASSERT_TRUE(sweep_into(b).all_converged());

  const sca::HashKey key = sca::sweep_key(
      sca::device_solve_key(nfet_90(), st::kCoarseMesh, {}), 0.25, 0.0, 0.3,
      4);
  const auto record_a = a.lookup(key, sca::PayloadKind::kSweep);
  const auto record_b = b.lookup(key, sca::PayloadKind::kSweep);
  ASSERT_NE(record_a, nullptr);
  ASSERT_NE(record_b, nullptr);
  EXPECT_EQ(record_a->bytes, record_b->bytes);
  std::vector<std::uint8_t> file_a;
  std::vector<std::uint8_t> file_b;
  ASSERT_TRUE(sca::read_file_bytes(a.record_path(key), file_a));
  ASSERT_TRUE(sca::read_file_bytes(b.record_path(key), file_b));
  EXPECT_EQ(file_a, file_b);

  const std::uint64_t hits_before = a.stats().hits;
  const st::SweepResult replay = sweep_into(a);
  EXPECT_GT(a.stats().hits, hits_before);
  ASSERT_EQ(replay.timings.size(), cold.timings.size());
  for (std::size_t i = 0; i < replay.timings.size(); ++i) {
    EXPECT_GT(cold.timings[i].wall_ms, 0.0);
    EXPECT_EQ(replay.timings[i].wall_ms, 0.0);
    EXPECT_EQ(replay.timings[i].vg, cold.timings[i].vg);
    EXPECT_EQ(replay.timings[i].gummel_iterations,
              cold.timings[i].gummel_iterations);
    EXPECT_EQ(replay.timings[i].retries, cold.timings[i].retries);
    EXPECT_EQ(replay.timings[i].converged, cold.timings[i].converged);
  }
}

TEST(TcadCache, FaultInjectionDisablesCaching) {
  TempCacheDir dir;
  sca::SolveCache cache{disk_options(dir)};
  se::RunContext ctx;
  ctx.cache = &cache;
  st::GummelOptions faulted;
  faulted.fault.stage = st::SolveStage::kPoisson;
  faulted.fault.count = 1;
  faulted.fault.min_bias = 0.18;
  faulted.fault.max_bias = 0.22;
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, faulted, ctx);
  EXPECT_EQ(dev.solve_cache(), nullptr);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(TcadCache, CorruptedSweepRecordRecomputes) {
  TempCacheDir dir;
  sca::CacheOptions opt = disk_options(dir);
  opt.max_entries_per_shard = 0;  // all lookups hit the disk image
  sca::SolveCache cache{opt};
  se::RunContext ctx;
  ctx.cache = &cache;

  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
  const st::SweepResult fresh = dev.id_vg(0.25, 0.0, 0.3, 4);
  ASSERT_TRUE(fresh.all_converged());

  const sca::HashKey sweep = sca::sweep_key(
      sca::device_solve_key(nfet_90(), st::kCoarseMesh, {}), 0.25, 0.0, 0.3,
      4);
  overwrite_file(cache.record_path(sweep), some_bytes(20));

  st::TcadDevice again(nfet_90(), st::kCoarseMesh, {}, ctx);
  const st::SweepResult recomputed = again.id_vg(0.25, 0.0, 0.3, 4);
  EXPECT_GT(cache.stats().corrupt, 0u);
  ASSERT_EQ(recomputed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(recomputed[i].id, fresh[i].id);
  }
}

TEST(TcadCache, WarmStartSeedsFromNearestState) {
  TempCacheDir dir;
  sca::SolveCache cache{disk_options(dir)};
  se::RunContext ctx;
  ctx.cache = &cache;

  // Populate: a sweep leaves its final state (vg=0.3, vd=0.25) behind.
  {
    st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
    ASSERT_TRUE(dev.id_vg(0.25, 0.0, 0.3, 4).all_converged());
  }
  // A DIFFERENT sweep on the same device misses the sweep record but can
  // warm-start its ramp from the cached neighbor.
  st::TcadDevice dev(nfet_90(), st::kCoarseMesh, {}, ctx);
  const st::SweepResult swept = dev.id_vg(0.25, 0.25, 0.35, 3);
  EXPECT_TRUE(swept.all_converged());
  EXPECT_GT(cache.stats().warmstarts, 0u);
}

// ---- crash-tolerant publish (multi-process store hardening) -----------------

TEST(AtomicWriteFile, RoundTripsWithAndWithoutFsync) {
  TempCacheDir dir;
  const std::string path = dir.str() + "/nested/dir/file.bin";
  const std::vector<std::uint8_t> payload = some_bytes(257);
  ASSERT_TRUE(sca::atomic_write_file(path, payload, /*sync=*/true));
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(sca::read_file_bytes(path, back));
  EXPECT_EQ(back, payload);
  // Replacing content is atomic too, and the no-fsync path (the lease
  // heartbeat's) writes the same bytes.
  const std::vector<std::uint8_t> second = some_bytes(64, 99);
  ASSERT_TRUE(sca::atomic_write_file(path, second, /*sync=*/false));
  ASSERT_TRUE(sca::read_file_bytes(path, back));
  EXPECT_EQ(back, second);
}

TEST(ConcurrentPublish, ThreadsSameKeyIdenticalPayload) {
  TempCacheDir dir;
  sca::SolveCache cache(disk_options(dir));
  const sca::HashKey key = key_of(1001);
  const std::vector<std::uint8_t> payload = some_bytes(512);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        cache.store(key, sca::PayloadKind::kSweep, payload);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  // A fresh instance with no memory index reads purely off disk.
  sca::CacheOptions cold = disk_options(dir);
  cold.max_entries_per_shard = 0;
  sca::SolveCache reader(cold);
  const auto rec = reader.lookup(key, sca::PayloadKind::kSweep);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, payload);
  EXPECT_EQ(cache.stats().corrupt, 0u);
  EXPECT_EQ(reader.stats().corrupt, 0u);
}

TEST(ConcurrentPublish, ThreadsSameKeyDifferingPayloadsNeverTear) {
  TempCacheDir dir;
  sca::SolveCache cache(disk_options(dir));
  const sca::HashKey key = key_of(2002);
  const std::vector<std::uint8_t> a = some_bytes(2048, 3);
  const std::vector<std::uint8_t> b = some_bytes(4096, 5);
  std::thread wa([&] {
    for (int i = 0; i < 40; ++i) cache.store(key, sca::PayloadKind::kSweep, a);
  });
  std::thread wb([&] {
    for (int i = 0; i < 40; ++i) cache.store(key, sca::PayloadKind::kSweep, b);
  });
  // Concurrent cold readers must see a whole record or none — never a
  // torn mix (which the checksum would count as corrupt).
  sca::CacheOptions cold = disk_options(dir);
  cold.max_entries_per_shard = 0;
  sca::SolveCache reader(cold);
  for (int i = 0; i < 200; ++i) {
    const auto rec = reader.lookup(key, sca::PayloadKind::kSweep);
    if (rec != nullptr) {
      EXPECT_TRUE(rec->bytes == a || rec->bytes == b);
    }
  }
  wa.join();
  wb.join();
  // Last writer wins: the settled record is exactly one candidate.
  const auto final_rec = reader.lookup(key, sca::PayloadKind::kSweep);
  ASSERT_NE(final_rec, nullptr);
  EXPECT_TRUE(final_rec->bytes == a || final_rec->bytes == b);
  EXPECT_EQ(reader.stats().corrupt, 0u);
  EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ConcurrentPublish, ProcessesShareOneStore) {
  TempCacheDir dir;
  const sca::HashKey shared = key_of(3003);
  const std::vector<std::uint8_t> payload = some_bytes(1024, 11);
  constexpr int kProcs = 2;
  pid_t pids[kProcs] = {0, 0};
  for (int p = 0; p < kProcs; ++p) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own SolveCache over the same directory; hammer the
      // shared key with the identical payload plus a private key.
      sca::SolveCache mine(disk_options(dir));
      for (int i = 0; i < 30; ++i) {
        mine.store(shared, sca::PayloadKind::kSweep, payload);
      }
      mine.store(key_of(4000u + static_cast<unsigned>(p)),
                 sca::PayloadKind::kState, some_bytes(128, 13));
      _exit(mine.stats().corrupt == 0 ? 0 : 1);
    }
    pids[p] = pid;
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  sca::SolveCache reader(disk_options(dir));
  const auto rec = reader.lookup(shared, sca::PayloadKind::kSweep);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, payload);
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_NE(reader.lookup(key_of(4000u + static_cast<unsigned>(p)),
                            sca::PayloadKind::kState),
              nullptr);
  }
  EXPECT_EQ(reader.stats().corrupt, 0u);
}

TEST(StaleTempSweep, TornTempIsInvisibleSweptAndCounted) {
  TempCacheDir dir;
  sca::SolveCache cache(disk_options(dir));
  const sca::HashKey key = key_of(5005);
  cache.store(key, sca::PayloadKind::kSweep, some_bytes(96));

  // Simulate writers SIGKILLed mid-publish: a zero-length temp beside
  // an unpublished record and a partial temp beside the published one,
  // both in their shard directories where the writer leaves them.
  const std::string torn_a = cache.record_path(key_of(5006)) + ".tmp-9999-0";
  const std::string torn_b = cache.record_path(key) + ".tmp-9999-1";
  fs::create_directories(fs::path(torn_a).parent_path());
  { std::ofstream(torn_a).flush(); }
  { std::ofstream(torn_b) << "SUBC-torso"; }

  // Torn temps never affect lookups: the published record still reads,
  // an unpublished key is a plain miss, nothing counts as corrupt.
  EXPECT_NE(cache.lookup(key, sca::PayloadKind::kSweep), nullptr);
  EXPECT_EQ(cache.lookup(key_of(5006), sca::PayloadKind::kSweep), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 0u);

  // Young temps survive an age-gated sweep (they could be live writers).
  EXPECT_EQ(cache.sweep_stale_temps(60.0), 0u);
  ASSERT_TRUE(fs::exists(torn_a));

  // Age them past the gate and sweep again: removed and counted.
  const auto old_time =
      fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(torn_a, old_time);
  fs::last_write_time(torn_b, old_time);
  EXPECT_EQ(cache.sweep_stale_temps(60.0), 2u);
  EXPECT_FALSE(fs::exists(torn_a));
  EXPECT_FALSE(fs::exists(torn_b));
  EXPECT_EQ(cache.stats().corrupt, 2u);
  // Real records are untouched.
  EXPECT_NE(cache.lookup(key, sca::PayloadKind::kSweep), nullptr);
}

// ---- accelerator key discrimination -----------------------------------------

TEST(CacheTcadKeys, AcceleratorKnobsPerturbTheKey) {
  // A cached state is only replayable under the exact solver physics
  // that produced it: the mesh-continuation levels must change the
  // device key, or a record from one config could answer a query for
  // another.
  const sc::DeviceSpec spec = nfet_90();
  const st::MeshOptions mesh = st::kCoarseMesh;
  const sca::HashKey base = sca::device_solve_key(spec, mesh, {});

  st::GummelOptions g;
  g.mesh_continuation_levels = 2;
  const sca::HashKey two_levels = sca::device_solve_key(spec, mesh, g);
  EXPECT_NE(two_levels, base);
  g.mesh_continuation_levels = 1;
  EXPECT_NE(sca::device_solve_key(spec, mesh, g), base);
  EXPECT_NE(sca::device_solve_key(spec, mesh, g), two_levels);
}

TEST(SolveCache, StateRecordsCarryTheMeshContinuationStamp) {
  // Every state record ends in a provenance trailer: one u64 holding
  // the mesh-continuation levels of the solver that produced it,
  // serialized the way every other u64 in the record is. Records of a
  // plain and a two-level device live under different keys and carry
  // their own levels, so provenance survives even a hypothetical key
  // collision.
  sca::SolveCache cache;  // memory-only
  se::RunContext ctx;
  ctx.cache = &cache;

  st::GummelOptions plain;
  st::GummelOptions meshcont;
  meshcont.mesh_continuation_levels = 2;
  st::TcadDevice dev_plain(nfet_90(), st::kCoarseMesh, plain, ctx);
  st::TcadDevice dev_meshcont(nfet_90(), st::kCoarseMesh, meshcont, ctx);

  const sca::HashKey key_plain = sca::state_key(
      sca::device_solve_key(nfet_90(), st::kCoarseMesh, plain), 0.0, 0.0,
      0.0, 0.0);
  const sca::HashKey key_meshcont = sca::state_key(
      sca::device_solve_key(nfet_90(), st::kCoarseMesh, meshcont), 0.0, 0.0,
      0.0, 0.0);
  ASSERT_NE(key_plain, key_meshcont);

  const auto rec_plain = cache.lookup(key_plain, sca::PayloadKind::kState);
  const auto rec_meshcont =
      cache.lookup(key_meshcont, sca::PayloadKind::kState);
  ASSERT_NE(rec_plain, nullptr);
  ASSERT_NE(rec_meshcont, nullptr);
  const auto& bp = rec_plain->bytes;
  const auto& bm = rec_meshcont->bytes;
  // Same mesh, same layout: the records differ only in their values.
  ASSERT_EQ(bp.size(), bm.size());
  ASSERT_GE(bp.size(), 8u);

  sca::ByteWriter wp, wm;
  wp.u64(0);
  wm.u64(2);
  EXPECT_TRUE(std::equal(bp.end() - 8, bp.end(), wp.take().begin()));
  EXPECT_TRUE(std::equal(bm.end() - 8, bm.end(), wm.take().begin()));
}
