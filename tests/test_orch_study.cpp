// End-to-end orchestrator tests (slow tier: real TCAD solves, forked
// worker processes, chaos kills). Everything runs on the cheapest real
// configuration — one or two nodes, coarse mesh, 3-4 point sweeps — so
// the suite exercises fork/lease/reassign/resume mechanics, not solver
// throughput.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/lease.h"
#include "cache/solve_cache.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "orch/orchestrator.h"

namespace fs = std::filesystem;
namespace sca = subscale::cache;
namespace so = subscale::orch;
namespace obs = subscale::obs;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-test-orchstudy-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

/// The cheapest real study: the two largest nodes, coarse mesh, 3-point
/// sweeps at one drain bias.
so::Manifest tiny_manifest() {
  so::StudySpec spec;
  spec.nodes = {0, 1};
  spec.points = 3;
  spec.mesh = subscale::tcad::kCoarseMesh;
  return so::build_manifest(spec);
}

so::OrchOptions options_in(const TempDir& dir, std::size_t workers) {
  so::OrchOptions options;
  options.workers = workers;
  options.study_dir = dir.str() + "/study";
  options.cache_dir = dir.str() + "/cache";
  options.lease_timeout_seconds = 1.0;
  options.deadline_seconds = 120.0;
  return options;
}

}  // namespace

TEST(OrchStudy, SerialModeSolvesAndMergesEveryUnit) {
  TempDir dir;
  obs::MetricsRegistry registry;
  so::OrchOptions options = options_in(dir, 0);
  options.run.metrics = &registry;
  const so::Manifest manifest = tiny_manifest();
  const so::StudyResult result = so::run_study(manifest, options);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.report.units_total, manifest.units.size());
  EXPECT_EQ(result.report.completed, manifest.units.size());
  EXPECT_EQ(result.report.claimed, manifest.units.size());
  EXPECT_EQ(result.report.poisoned, 0u);
  EXPECT_EQ(registry.counter(obs::names::kOrchCompleted).value(),
            manifest.units.size());
  for (const so::UnitOutcome& o : result.outcomes) {
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.result.usable());
  }
}

TEST(OrchStudy, ResumeSolvesOnlyTheRemainder) {
  TempDir dir;
  const so::Manifest manifest = tiny_manifest();

  // Pre-publish the first unit by running a one-unit sub-manifest.
  so::Manifest first = manifest;
  first.units.resize(1);
  so::run_study(first, options_in(dir, 0));

  // The full run finds it in the store and solves only the remainder.
  obs::MetricsRegistry registry;
  so::OrchOptions options = options_in(dir, 0);
  options.run.metrics = &registry;
  const so::StudyResult result = so::run_study(manifest, options);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.report.resumed, 1u);
  EXPECT_EQ(result.report.claimed, manifest.units.size() - 1);
  EXPECT_TRUE(result.outcomes[0].resumed);
  EXPECT_FALSE(result.outcomes[1].resumed);

  // A second full rerun is pure resume: nothing claimed, orch.claimed
  // stays untouched, and the merge is bitwise-identical.
  obs::MetricsRegistry registry2;
  so::OrchOptions options2 = options_in(dir, 0);
  options2.run.metrics = &registry2;
  const so::StudyResult again = so::run_study(manifest, options2);
  EXPECT_TRUE(again.complete());
  EXPECT_EQ(again.report.resumed, manifest.units.size());
  EXPECT_EQ(again.report.claimed, 0u);
  EXPECT_EQ(registry2.counter(obs::names::kOrchClaimed).value(), 0u);
  EXPECT_EQ(registry2.counter(obs::names::kOrchCompleted).value(),
            manifest.units.size());
  EXPECT_EQ(again.json(), result.json());
}

TEST(OrchStudy, ForkedWorkersMatchSerialBitwise) {
  TempDir serial_dir;
  TempDir forked_dir;
  const so::Manifest manifest = tiny_manifest();
  const so::StudyResult serial =
      so::run_study(manifest, options_in(serial_dir, 0));
  const so::StudyResult forked =
      so::run_study(manifest, options_in(forked_dir, 2));
  EXPECT_TRUE(serial.complete());
  EXPECT_TRUE(forked.complete());
  EXPECT_EQ(forked.json(), serial.json());
}

TEST(OrchStudy, ChaosKilledWorkersRecoverBitwise) {
  TempDir serial_dir;
  const so::Manifest manifest = tiny_manifest();
  const so::StudyResult serial =
      so::run_study(manifest, options_in(serial_dir, 0));

  // Every kill site (after-claim / after-equilibrium / solved-unpub-
  // lished) must recover to the identical merge. Seeds 0..2 cover all
  // three phases for unit 0 (asserted in test_orch.cpp's phase test).
  for (const std::uint64_t seed : {0ull, 1ull, 2ull}) {
    TempDir chaos_dir;
    obs::MetricsRegistry registry;
    so::OrchOptions options = options_in(chaos_dir, 2);
    options.run.metrics = &registry;
    options.chaos.kill_after_units = 1;  // every initial worker dies
    options.chaos.seed = seed;
    const so::StudyResult chaotic = so::run_study(manifest, options);
    EXPECT_TRUE(chaotic.complete()) << "seed " << seed;
    EXPECT_EQ(chaotic.report.poisoned, 0u) << "seed " << seed;
    EXPECT_GT(chaotic.report.reassigned, 0u) << "seed " << seed;
    EXPECT_GT(registry.counter(obs::names::kOrchReassigned).value(), 0u);
    // The contract of the whole subsystem: a SIGKILL mid-unit never
    // loses or corrupts a unit — the merge is bit-for-bit the serial
    // reference, and the store saw no corruption.
    EXPECT_EQ(chaotic.json(), serial.json()) << "seed " << seed;
    EXPECT_EQ(registry.counter(obs::names::kCacheCorrupt).value(), 0u);
  }
}

TEST(OrchStudy, SigtermChaosReleasesLeasesGracefully) {
  TempDir serial_dir;
  const so::Manifest manifest = tiny_manifest();
  const so::StudyResult serial =
      so::run_study(manifest, options_in(serial_dir, 0));

  TempDir chaos_dir;
  so::OrchOptions options = options_in(chaos_dir, 2);
  options.chaos.kill_after_units = 1;
  options.chaos.sigkill = false;  // SIGTERM: handler releases the lease
  options.chaos.seed = 1;
  const so::StudyResult result = so::run_study(manifest, options);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.json(), serial.json());
}

TEST(OrchStudy, RetryBudgetExhaustionPoisonsInsteadOfWedging) {
  TempDir dir;
  obs::MetricsRegistry registry;
  so::Manifest manifest = tiny_manifest();
  manifest.units.resize(1);  // one unit is enough to poison

  so::OrchOptions options = options_in(dir, 1);
  options.run.metrics = &registry;
  options.retry_budget = 0;            // first reassignment poisons
  options.chaos.kill_after_units = 1;  // worker always dies mid-unit
  options.chaos.seed = 0;
  options.rearm_chaos = true;          // respawns die too
  options.backoff_seconds = 0.05;
  const so::StudyResult result = so::run_study(manifest, options);
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.report.poisoned, 1u);
  EXPECT_TRUE(result.outcomes[0].poisoned);
  EXPECT_EQ(registry.counter(obs::names::kOrchPoisoned).value(), 1u);
  // The poison marker survives with its reason, and the merged JSON
  // carries the hole explicitly.
  EXPECT_NE(so::poison_reason(options.study_dir, 0).find("retry budget"),
            std::string::npos);
  EXPECT_NE(result.json().find("\"poisoned\": true"), std::string::npos);

  // A rerun after clearing chaos honors the marker (no silent retry)...
  so::OrchOptions retry = options_in(dir, 0);
  const so::StudyResult honored = so::run_study(manifest, retry);
  EXPECT_EQ(honored.report.poisoned, 1u);
  EXPECT_EQ(honored.report.claimed, 0u);
  // ...until the marker is removed, which re-opens the unit.
  fs::remove(so::poison_path(retry.study_dir, 0));
  const so::StudyResult reopened = so::run_study(manifest, retry);
  EXPECT_TRUE(reopened.complete());
}

TEST(OrchStudy, WriteStudyResultIsAtomicAndStable) {
  TempDir dir;
  const so::Manifest manifest = tiny_manifest();
  const so::StudyResult result =
      so::run_study(manifest, options_in(dir, 0));
  const std::string path = dir.str() + "/result.json";
  ASSERT_TRUE(so::write_study_result(path, result));
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(sca::read_file_bytes(path, bytes));
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), result.json());
}
