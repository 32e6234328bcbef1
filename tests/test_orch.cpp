// Fast orchestrator-layer tests: manifest construction and round-trip,
// unit key schema properties, lease protocol primitives, poison
// markers, the UnitResult byte codec, and chaos-phase determinism.
// Everything here runs in milliseconds (no TCAD solves); the end-to-end
// fork/chaos/resume coverage lives in test_orch_study.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/lease.h"
#include "cache/solve_cache.h"
#include "orch/manifest.h"
#include "orch/orchestrator.h"
#include "orch/unit_runner.h"
#include "orch/worker.h"

namespace fs = std::filesystem;
namespace sca = subscale::cache;
namespace sco = subscale::core;
namespace so = subscale::orch;
using subscale::core::Strategy;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-test-orch-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

so::StudySpec small_spec() {
  so::StudySpec spec;
  spec.nodes = {0, 1};
  spec.vds = {0.25, 0.05};
  spec.points = 4;
  spec.mesh = subscale::tcad::kCoarseMesh;
  return spec;
}

so::UnitResult sample_result() {
  so::UnitResult r;
  r.node = 2;
  r.lpoly_nm = 45.5;
  r.attempted = 4;
  r.points = {{0.0, 1e-9}, {0.15, 2.5e-8}, {0.3, 7.5e-7}};
  so::UnitFailure f;
  f.vg = 0.45;
  f.vd = 0.25;
  f.stage = "poisson";
  f.status = "stalled";
  r.failures = {f};
  return r;
}

}  // namespace

// ---- manifest ---------------------------------------------------------------

TEST(Manifest, GridExpansionOrderAndIndices) {
  so::StudySpec spec = small_spec();
  spec.strategies = {Strategy::kSuperVth, Strategy::kSubVth};
  const so::Manifest m = so::build_manifest(spec);
  // strategies x nodes x vds, nested in that order.
  ASSERT_EQ(m.units.size(), 2u * 2u * 2u);
  EXPECT_EQ(m.units[0].strategy, Strategy::kSuperVth);
  EXPECT_EQ(m.units[0].node, 0u);
  EXPECT_EQ(m.units[0].vd, 0.25);
  EXPECT_EQ(m.units[1].vd, 0.05);
  EXPECT_EQ(m.units[2].node, 1u);
  EXPECT_EQ(m.units[4].strategy, Strategy::kSubVth);
  for (std::size_t i = 0; i < m.units.size(); ++i) {
    EXPECT_EQ(m.units[i].index, i);
  }
}

TEST(Manifest, UnitKeysAreDistinctAndDeterministic) {
  const so::Manifest a = so::build_manifest(small_spec());
  const so::Manifest b = so::build_manifest(small_spec());
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    EXPECT_EQ(a.units[i].result_key, b.units[i].result_key);
    for (std::size_t j = i + 1; j < a.units.size(); ++j) {
      EXPECT_NE(a.units[i].result_key, a.units[j].result_key);
    }
  }
}

TEST(Manifest, KeyMovesWhenAnyInputChanges) {
  const so::Manifest base = so::build_manifest(small_spec());
  so::StudySpec finer = small_spec();
  finer.points = 6;
  const so::Manifest more_points = so::build_manifest(finer);
  so::StudySpec other_mesh = small_spec();
  other_mesh.mesh.grading_ratio = 1.5;
  const so::Manifest remeshed = so::build_manifest(other_mesh);
  EXPECT_NE(base.units[0].result_key, more_points.units[0].result_key);
  EXPECT_NE(base.units[0].result_key, remeshed.units[0].result_key);
}

TEST(Manifest, CardIsCarriedHashedAndResolved) {
  // A non-default technology card must flow spec -> study options ->
  // unit keys -> manifest JSON: same grid, disjoint key space.
  const so::Manifest base = so::build_manifest(small_spec());
  so::StudySpec hot = small_spec();
  hot.card = "paper_bulk_hot350";
  const so::Manifest hot_m = so::build_manifest(hot);
  ASSERT_EQ(base.units.size(), hot_m.units.size());
  for (std::size_t i = 0; i < base.units.size(); ++i) {
    EXPECT_NE(base.units[i].result_key, hot_m.units[i].result_key);
  }

  // The resolved card reaches the study options, temperature included.
  const auto options = so::study_options_for(hot);
  EXPECT_EQ(options.card.id, "paper_bulk_hot350");
  EXPECT_EQ(options.card.env.temperature, 350.0);

  // And survives the manifest JSON round-trip byte-exactly.
  TempDir dir;
  const std::string path = dir.str() + "/m.json";
  ASSERT_TRUE(so::save_manifest(path, hot_m));
  so::Manifest back;
  std::string error;
  ASSERT_TRUE(so::load_manifest(path, back, &error)) << error;
  EXPECT_EQ(back.spec.card, "paper_bulk_hot350");
  EXPECT_EQ(so::manifest_to_json(back), so::manifest_to_json(hot_m));

  // Unknown cards are rejected before any unit is enqueued.
  so::StudySpec bogus = small_spec();
  bogus.card = "no_such_deck";
  EXPECT_THROW(so::build_manifest(bogus), std::invalid_argument);
}

TEST(Manifest, JsonRoundTripIsExact) {
  TempDir dir;
  so::StudySpec spec = small_spec();
  spec.strategies = {Strategy::kSubVth};
  spec.gummel.max_iterations = 42;
  spec.gummel.psi_tolerance = 3.25e-8;
  spec.gummel.bias_step = 0.05;
  spec.gummel.mesh_continuation_levels = 2;
  spec.gummel.poisson.update_tolerance = 2e-9;
  const so::Manifest m = so::build_manifest(spec);
  const std::string path = dir.str() + "/manifest.json";
  ASSERT_TRUE(so::save_manifest(path, m));

  so::Manifest back;
  std::string error;
  ASSERT_TRUE(so::load_manifest(path, back, &error)) << error;
  EXPECT_EQ(back.version, m.version);
  EXPECT_EQ(back.spec.points, m.spec.points);
  EXPECT_EQ(back.spec.gummel.max_iterations, 42u);
  EXPECT_EQ(back.spec.gummel.psi_tolerance, 3.25e-8);
  EXPECT_EQ(back.spec.gummel.bias_step, 0.05);
  EXPECT_EQ(back.spec.gummel.mesh_continuation_levels, 2u);
  EXPECT_EQ(back.spec.gummel.poisson.update_tolerance, 2e-9);
  ASSERT_EQ(back.units.size(), m.units.size());
  for (std::size_t i = 0; i < m.units.size(); ++i) {
    EXPECT_EQ(back.units[i].result_key, m.units[i].result_key);
    EXPECT_EQ(back.units[i].strategy, m.units[i].strategy);
    EXPECT_EQ(back.units[i].node, m.units[i].node);
    EXPECT_EQ(back.units[i].vd, m.units[i].vd);
  }
  // The reloaded manifest re-serializes to the identical document.
  EXPECT_EQ(so::manifest_to_json(back), so::manifest_to_json(m));
}

TEST(Manifest, LoadRejectsMalformedAndVersionBumped) {
  TempDir dir;
  const std::string path = dir.str() + "/m.json";
  so::Manifest out;
  std::string error;
  EXPECT_FALSE(so::load_manifest(path, out, &error));  // absent

  const std::string garbled = "{\"manifest_version\": 1, \"units\": ";
  sca::atomic_write_file(path, garbled.data(), garbled.size());
  EXPECT_FALSE(so::load_manifest(path, out, &error));

  const std::string bumped =
      "{\"manifest_version\": 999, \"spec\": {}, \"units\": []}";
  sca::atomic_write_file(path, bumped.data(), bumped.size());
  EXPECT_FALSE(so::load_manifest(path, out, &error));
  EXPECT_NE(error.find("manifest_version"), std::string::npos);
}

TEST(Manifest, ValidationNamesOffendingField) {
  so::StudySpec spec = small_spec();
  spec.points = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.vds.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.nodes = {99};
  EXPECT_THROW(so::build_manifest(spec), std::out_of_range);
}

TEST(Manifest, StrategyNamesRoundTrip) {
  Strategy s;
  ASSERT_TRUE(sco::parse_strategy("supervth", s));
  EXPECT_EQ(s, Strategy::kSuperVth);
  ASSERT_TRUE(sco::parse_strategy("subvth", s));
  EXPECT_EQ(s, Strategy::kSubVth);
  EXPECT_FALSE(sco::parse_strategy("underdrive", s));
  EXPECT_STREQ(sco::strategy_name(Strategy::kSuperVth), "supervth");
  EXPECT_STREQ(sco::strategy_name(Strategy::kSubVth), "subvth");
}

// ---- leases -----------------------------------------------------------------

TEST(Lease, ExactlyOneAcquirerWins) {
  TempDir dir;
  const std::string path = dir.str() + "/leases/unit-0.lease";
  EXPECT_TRUE(sca::lease_try_acquire(path, "alice"));
  EXPECT_FALSE(sca::lease_try_acquire(path, "bob"));
  const sca::LeaseInfo info = sca::lease_inspect(path);
  EXPECT_TRUE(info.exists);
  EXPECT_EQ(info.owner, "alice");
  sca::lease_release(path);
  EXPECT_FALSE(sca::lease_inspect(path).exists);
  // Released leases are reacquirable, and release is idempotent.
  sca::lease_release(path);
  EXPECT_TRUE(sca::lease_try_acquire(path, "bob"));
}

TEST(Lease, ManyThreadsRaceOneWinner) {
  TempDir dir;
  const std::string path = dir.str() + "/race.lease";
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      if (sca::lease_try_acquire(path, "t" + std::to_string(t))) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);
}

TEST(Lease, HeartbeatRefreshesAgeAndBeats) {
  TempDir dir;
  const std::string path = dir.str() + "/hb.lease";
  ASSERT_TRUE(sca::lease_try_acquire(path, "w0"));
  ASSERT_TRUE(sca::lease_heartbeat(path, "w0", 7));
  const sca::LeaseInfo info = sca::lease_inspect(path);
  EXPECT_TRUE(info.exists);
  EXPECT_EQ(info.owner, "w0");
  EXPECT_EQ(info.beats, 7u);
  EXPECT_LT(info.age_seconds, 30.0);  // just written
  // An aged lease reads as stale through the same inspect path.
  fs::last_write_time(path,
                      fs::file_time_type::clock::now() -
                          std::chrono::seconds(90));
  EXPECT_GT(sca::lease_inspect(path).age_seconds, 60.0);
}

TEST(Lease, StudyDirPoisonMarkers) {
  TempDir dir;
  EXPECT_FALSE(so::unit_poisoned(dir.str(), 3));
  ASSERT_TRUE(so::poison_unit(dir.str(), 3, "retry budget exhausted"));
  EXPECT_TRUE(so::unit_poisoned(dir.str(), 3));
  EXPECT_FALSE(so::unit_poisoned(dir.str(), 4));
  EXPECT_EQ(so::poison_reason(dir.str(), 3), "retry budget exhausted");
  EXPECT_EQ(so::poison_reason(dir.str(), 4), "");
  // Idempotent: re-poisoning just rewrites the reason.
  ASSERT_TRUE(so::poison_unit(dir.str(), 3, "deadline"));
  EXPECT_EQ(so::poison_reason(dir.str(), 3), "deadline");
}

// ---- unit result codec ------------------------------------------------------

TEST(UnitCodec, RoundTripsExactly) {
  const so::UnitResult r = sample_result();
  const std::vector<std::uint8_t> bytes = so::encode_unit_result(r);
  so::UnitResult back;
  ASSERT_TRUE(so::decode_unit_result(bytes, back));
  EXPECT_EQ(back.node, r.node);
  EXPECT_EQ(back.lpoly_nm, r.lpoly_nm);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.attempted, r.attempted);
  ASSERT_EQ(back.points.size(), r.points.size());
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(back.points[i].vg, r.points[i].vg);
    EXPECT_EQ(back.points[i].id, r.points[i].id);
  }
  ASSERT_EQ(back.failures.size(), 1u);
  EXPECT_EQ(back.failures[0].stage, "poisson");
  EXPECT_EQ(back.failures[0].status, "stalled");
}

TEST(UnitCodec, RejectsTruncationAndVersionBump) {
  const std::vector<std::uint8_t> bytes =
      so::encode_unit_result(sample_result());
  so::UnitResult out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + cut);
    EXPECT_FALSE(so::decode_unit_result(truncated, out)) << cut;
  }
  std::vector<std::uint8_t> bumped = bytes;
  bumped[0] = 0xEE;  // version field is the first u32
  EXPECT_FALSE(so::decode_unit_result(bumped, out));
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(so::decode_unit_result(trailing, out));
}

TEST(UnitCodec, PublishAndLoadThroughCache) {
  TempDir dir;
  sca::CacheOptions options;
  options.dir = dir.str() + "/cache";
  sca::SolveCache cache(options);
  const so::Manifest m = so::build_manifest(small_spec());
  const so::UnitResult r = sample_result();
  ASSERT_TRUE(so::publish_unit_result(cache, m.units[0], r));
  so::UnitResult back;
  ASSERT_TRUE(so::load_unit_result(cache, m.units[0], back));
  EXPECT_EQ(back.points.size(), r.points.size());
  // The neighbouring unit's key misses.
  EXPECT_FALSE(so::load_unit_result(cache, m.units[1], back));
}

// ---- chaos + merge determinism ----------------------------------------------

TEST(Chaos, KillPhaseIsSeededAndCoversAllSites) {
  so::ChaosPolicy chaos;
  chaos.kill_after_units = 1;
  bool seen[3] = {false, false, false};
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    chaos.seed = seed;
    const std::size_t phase = so::chaos_kill_phase(chaos, 0);
    ASSERT_LT(phase, 3u);
    seen[phase] = true;
    // Deterministic: same seed/unit, same site.
    EXPECT_EQ(phase, so::chaos_kill_phase(chaos, 0));
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(Merge, StudyResultJsonIsCanonical) {
  const so::Manifest m = so::build_manifest(small_spec());
  const so::UnitResult r = sample_result();
  std::vector<const so::UnitResult*> results(m.units.size(), &r);
  results[1] = nullptr;  // a poisoned slot
  const std::string a = so::study_result_json(m, results);
  const std::string b = so::study_result_json(m, results);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"poisoned\": true"), std::string::npos);
  // Results change the document; the poisoned hole is visible.
  results[1] = &r;
  EXPECT_NE(so::study_result_json(m, results), a);
}

TEST(OrchOptionsValidation, NamesOffendingFields) {
  so::OrchOptions options;
  EXPECT_THROW(options.validate(), std::invalid_argument);  // no cache_dir
  options.cache_dir = "/tmp/x";
  options.workers = 2;
  EXPECT_THROW(options.validate(), std::invalid_argument);  // no study_dir
  options.study_dir = "/tmp/y";
  options.lease_timeout_seconds = so::kHeartbeatSeconds;  // too tight
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options.lease_timeout_seconds = 2.0;
  EXPECT_NO_THROW(options.validate());
}
