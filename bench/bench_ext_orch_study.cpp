// Extension bench for the multi-process study orchestrator (src/orch):
// run the same sharded study three ways against fresh caches —
//   1. one worker process (the multi-process baseline),
//   2. four worker processes (the throughput configuration),
//   3. four workers with a deterministic chaos kill (one worker
//      SIGKILLed mid-unit, orchestrator reassigns and respawns) —
// and a serial in-process reference, then check the orchestration
// contract: every merged output is bitwise-identical to the serial
// reference, the chaos run recovers every unit (nothing poisoned), and
// at >= 4 hardware threads the 4-worker run beats the 1-worker run.
// Records wall times, the speedup, units reassigned, and the bitwise
// flags in BENCH_ext_orch_study.json.

#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "common.h"
#include "orch/orchestrator.h"

using namespace subscale;

namespace {

struct TimedRun {
  orch::StudyResult result;
  double wall_ms = 0.0;
};

TimedRun timed_study(const orch::Manifest& manifest,
                     const orch::OrchOptions& options) {
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.result = orch::run_study(manifest, options);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

}  // namespace

int main() {
  return bench::run(
      "ext_orch_study",
      "Extension — crash-tolerant multi-process study orchestrator",
      "a sharded study should survive worker deaths without losing or "
      "corrupting a unit, and merge bitwise-identically to a serial run",
      "all merges bitwise == serial reference; chaos run recovers every "
      "unit; 4-worker beats 1-worker at >= 4 hw threads",
      [](bench::Record& record) {
        namespace fs = std::filesystem;
        const std::string root =
            "orch_bench_tmp_" +
            std::to_string(static_cast<long>(::getpid()));
        fs::remove_all(root);

        orch::StudySpec spec;
        spec.points = 4;
        spec.mesh = tcad::kCoarseMesh;  // orchestration is under test
        const orch::Manifest manifest = orch::build_manifest(spec);
        std::printf("study: %zu units (supervth x 4 nodes, %zu-point "
                    "sweeps, coarse mesh)\n\n",
                    manifest.units.size(), spec.points);

        const auto options_for = [&](const char* tag, std::size_t workers) {
          orch::OrchOptions o;
          o.workers = workers;
          o.study_dir = root + "/study_" + tag;
          o.cache_dir = root + "/cache_" + tag;
          o.lease_timeout_seconds = 1.0;
          o.run.metrics = &bench::detail::bench_registry();
          return o;
        };

        const TimedRun serial = timed_study(manifest, options_for("s", 0));
        const std::string reference = serial.result.json();
        const TimedRun one = timed_study(manifest, options_for("w1", 1));
        const TimedRun four = timed_study(manifest, options_for("w4", 4));

        orch::OrchOptions chaos_options = options_for("chaos", 4);
        chaos_options.chaos.kill_after_units = 1;  // every initial worker
        chaos_options.chaos.seed = 42;             // dies mid-first-unit
        const TimedRun chaos = timed_study(manifest, chaos_options);

        const bool one_bitwise = one.result.json() == reference;
        const bool four_bitwise = four.result.json() == reference;
        const bool chaos_bitwise = chaos.result.json() == reference;
        const bool chaos_recovered = chaos.result.complete() &&
                                     chaos.result.report.poisoned == 0;
        const double speedup =
            four.wall_ms > 0 ? one.wall_ms / four.wall_ms : 0.0;

        std::printf("serial reference   %8.1f ms\n", serial.wall_ms);
        std::printf("1 worker           %8.1f ms  bitwise=%s\n",
                    one.wall_ms, one_bitwise ? "yes" : "NO");
        std::printf("4 workers          %8.1f ms  bitwise=%s  "
                    "speedup=%.2fx\n",
                    four.wall_ms, four_bitwise ? "yes" : "NO", speedup);
        std::printf("4 workers + chaos  %8.1f ms  bitwise=%s  "
                    "reassigned=%zu restarts=%zu poisoned=%zu\n\n",
                    chaos.wall_ms, chaos_bitwise ? "yes" : "NO",
                    chaos.result.report.reassigned,
                    chaos.result.report.worker_restarts,
                    chaos.result.report.poisoned);

        record.metric("serial_ms", serial.wall_ms);
        record.metric("one_worker_ms", one.wall_ms);
        record.metric("four_worker_ms", four.wall_ms);
        record.metric("chaos_ms", chaos.wall_ms);
        record.metric("speedup_4v1", speedup);
        record.metric("chaos_reassigned",
                      static_cast<double>(chaos.result.report.reassigned));
        record.metric("chaos_restarts",
                      static_cast<double>(
                          chaos.result.report.worker_restarts));
        record.metric("bitwise_one", one_bitwise ? 1.0 : 0.0);
        record.metric("bitwise_four", four_bitwise ? 1.0 : 0.0);
        record.metric("bitwise_chaos", chaos_bitwise ? 1.0 : 0.0);

        fs::remove_all(root);

        bool ok = one_bitwise && four_bitwise && chaos_bitwise &&
                  chaos_recovered && chaos.result.report.reassigned > 0;
        // The throughput gate binds only where the hardware can actually
        // parallelize (same policy as bench_ext_parallel_study).
        if (std::thread::hardware_concurrency() >= 4) {
          ok = ok && speedup > 1.2;
        }
        return ok;
      });
}
