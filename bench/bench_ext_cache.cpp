// Extension bench for the solve cache: run the full four-node
// ScalingStudy::tcad_validation three times — uncached baseline, cold
// run populating a fresh on-disk cache, warm run reading it back
// through a brand-new SolveCache instance (so every hit comes off
// disk) — and check the caching contract: the warm run must be
// bitwise-identical to the uncached baseline while replaying instead
// of solving. Records cold-vs-warm speedup and the cache traffic in
// BENCH_ext_cache.json.

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.h"

using namespace subscale;

namespace {

bool identical(const std::vector<core::TcadNodeValidation>& a,
               const std::vector<core::TcadNodeValidation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].error != b[i].error ||
        a[i].sweep.size() != b[i].sweep.size() ||
        a[i].report.attempted != b[i].report.attempted ||
        a[i].report.failures.size() != b[i].report.failures.size()) {
      return false;
    }
    for (std::size_t p = 0; p < a[i].sweep.size(); ++p) {
      // Bitwise: a replayed sweep must not differ in a single bit.
      if (a[i].sweep[p].vg != b[i].sweep[p].vg ||
          a[i].sweep[p].id != b[i].sweep[p].id) {
        return false;
      }
    }
  }
  return true;
}

double timed_validation(const core::TcadValidationOptions& options,
                        std::vector<core::TcadNodeValidation>& out) {
  const auto start = std::chrono::steady_clock::now();
  out = bench::study().tcad_validation(options);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  return bench::run(
      "ext_cache",
      "Extension — persistent solve cache (content-addressed replay)",
      "a TCAD study re-run with unchanged inputs should pay disk-read "
      "prices, not solver prices, and lose nothing: replay is bitwise",
      "warm run >= 5x faster than cold, cache.hit > 0, warm results "
      "bitwise-identical to the uncached baseline",
      [](bench::Record& rec) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("subscale-bench-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  core::TcadValidationOptions options;
  // The cacheable workload: nodes whose sweeps fully converge. Failed
  // solves are deliberately never cached (a failure deserves a fresh
  // diagnosis every run), so the aggressive 45/32nm-class nodes would
  // only add a constant re-solve cost to both cold and warm runs.
  options.nodes = {0, 1};
  options.run.exec = exec::ExecPolicy::serial();

  // Uncached baseline: no cache at all, not even an env default the
  // harness installed.
  std::vector<core::TcadNodeValidation> baseline, cold, warm;
  options.run.no_cache = true;
  const double baseline_ms = timed_validation(options, baseline);
  options.run.no_cache = false;

  double cold_ms = 0.0;
  double warm_ms = 0.0;
  cache::SolveCache::Stats cold_stats;
  cache::SolveCache::Stats warm_stats;
  {
    cache::SolveCache populate({.dir = dir.string()});
    options.run.cache = &populate;
    cold_ms = timed_validation(options, cold);
    cold_stats = populate.stats();
  }
  {
    // Fresh instance on the same directory: the in-memory index starts
    // empty, so every hit below is a real disk read.
    cache::SolveCache replay({.dir = dir.string()});
    options.run.cache = &replay;
    warm_ms = timed_validation(options, warm);
    warm_stats = replay.stats();
  }
  fs::remove_all(dir);

  const double speedup = cold_ms / warm_ms;
  const bool bitwise = identical(baseline, warm) && identical(baseline, cold);

  io::TextTable t({"run", "wall [ms]", "hits", "stores"});
  t.add_row({"uncached", io::fmt(baseline_ms, 5), "-", "-"});
  t.add_row({"cold (populate)", io::fmt(cold_ms, 5),
             io::fmt(static_cast<double>(cold_stats.hits), 0),
             io::fmt(static_cast<double>(cold_stats.stores), 0)});
  t.add_row({"warm (replay)", io::fmt(warm_ms, 5),
             io::fmt(static_cast<double>(warm_stats.hits), 0),
             io::fmt(static_cast<double>(warm_stats.stores), 0)});
  std::printf("%s\n", t.render(2).c_str());
  std::printf("cold->warm speedup: %.1fx; warm hits: %llu; replay %s\n",
              speedup,
              static_cast<unsigned long long>(warm_stats.hits),
              bitwise ? "bitwise-identical" : "DIVERGED");

  rec.metric("uncached_ms", baseline_ms);
  rec.metric("cold_ms", cold_ms);
  rec.metric("warm_ms", warm_ms);
  rec.metric("speedup_x", speedup);
  rec.metric("warm_hits", static_cast<double>(warm_stats.hits));
  rec.metric("warm_misses", static_cast<double>(warm_stats.misses));
  rec.metric("results_bitwise_identical", bitwise ? 1.0 : 0.0);

  return bitwise && warm_stats.hits > 0 && speedup >= 5.0;
      });
}
