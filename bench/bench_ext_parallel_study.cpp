// Extension bench for the execution layer: run the full four-node
// ScalingStudy::tcad_validation serially (threads = 1) and through the
// task pool (threads = 4), check the determinism contract — the two
// runs must produce identical sweeps and reports — and record the
// wall-clock speedup in BENCH_ext_parallel_study.json. The speedup
// criterion only binds when the machine actually has >= 4 hardware
// threads; the determinism criterion always binds.

#include <cmath>
#include <thread>

#include "common.h"

using namespace subscale;

namespace {

bool identical(const std::vector<core::TcadNodeValidation>& a,
               const std::vector<core::TcadNodeValidation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].lpoly_nm != b[i].lpoly_nm ||
        a[i].error != b[i].error ||
        a[i].sweep.size() != b[i].sweep.size() ||
        a[i].report.attempted != b[i].report.attempted ||
        a[i].report.failures.size() != b[i].report.failures.size()) {
      return false;
    }
    for (std::size_t p = 0; p < a[i].sweep.size(); ++p) {
      // Bitwise: the parallel fan-out must not change a single solve.
      if (a[i].sweep[p].vg != b[i].sweep[p].vg ||
          a[i].sweep[p].id != b[i].sweep[p].id) {
        return false;
      }
    }
    for (std::size_t p = 0; p < a[i].report.failures.size(); ++p) {
      if (a[i].report.failures[p].vg != b[i].report.failures[p].vg) {
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
      "ext_parallel_study",
      "Extension — parallel TCAD validation (task-pool fan-out)",
      "node sweeps are independent; a task engine must cut wall-clock "
      "time without changing one bit of the results",
      "every node usable; serial and 4-thread runs bitwise-identical; "
      ">= 2x speedup at 4 threads when the hardware has them",
      [](bench::Record& rec) {
  core::TcadValidationOptions options;  // all four nodes, default sweep
  // Both passes solve cold: under an env-installed cache the pooled pass
  // would replay the serial pass's sweeps and time nothing.
  options.run.no_cache = true;

  std::vector<core::TcadNodeValidation> serial, parallel;
  options.run.exec = exec::ExecPolicy::serial();
  const double serial_ms = timed_validation(options, serial);
  options.run.exec = exec::ExecPolicy{4};
  const double parallel_ms = timed_validation(options, parallel);

  const double speedup = serial_ms / parallel_ms;
  const bool same = identical(serial, parallel);
  const std::size_t hw = std::thread::hardware_concurrency();

  io::TextTable t({"run", "threads", "wall [ms]", "usable nodes"});
  const auto usable = [](const std::vector<core::TcadNodeValidation>& r) {
    std::size_t n = 0;
    for (const auto& node : r) n += node.usable() ? 1 : 0;
    return n;
  };
  t.add_row({"serial", "1", io::fmt(serial_ms, 5),
             io::fmt(static_cast<double>(usable(serial)), 1)});
  t.add_row({"pooled", "4", io::fmt(parallel_ms, 5),
             io::fmt(static_cast<double>(usable(parallel)), 1)});
  std::printf("%s\n", t.render(2).c_str());
  std::printf("speedup: %.2fx on %zu hardware thread(s); results %s\n",
              speedup, hw, same ? "identical" : "DIVERGED");

  rec.metric("usable_nodes", static_cast<double>(usable(serial)));
  rec.metric("serial_ms", serial_ms);
  rec.metric("parallel_ms", parallel_ms);
  rec.metric("speedup_x", speedup);
  rec.metric("hardware_threads", static_cast<double>(hw));
  rec.metric("results_identical", same ? 1.0 : 0.0);

  // Every node must converge and the determinism contract is
  // unconditional; the 2x speedup target only applies where 4 threads
  // physically exist.
  const bool all_usable = usable(serial) == serial.size();
  const bool speedup_ok = hw < 4 || speedup >= 2.0;
  return all_usable && same && speedup_ok;
      });
}
