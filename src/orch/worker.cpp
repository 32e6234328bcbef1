#include "orch/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "cache/lease.h"
#include "cache/solve_cache.h"
#include "exec/rng.h"
#include "exec/run_context.h"
#include "orch/unit_runner.h"

namespace subscale::orch {

namespace {

// The lease the SIGTERM handler must release. Plain char buffer +
// sig_atomic_t flag: the handler runs with only async-signal-safe calls
// (unlink, _exit), so no std::string may be touched from it.
constexpr std::size_t kLeaseBufSize = 4096;
char g_current_lease[kLeaseBufSize];
volatile std::sig_atomic_t g_lease_armed = 0;

extern "C" void worker_sigterm_handler(int /*signo*/) {
  if (g_lease_armed != 0) {
    ::unlink(g_current_lease);
    g_lease_armed = 0;
  }
  ::_exit(143);  // 128 + SIGTERM, the conventional code
}

void arm_lease_release(const std::string& path) {
  if (path.size() >= kLeaseBufSize) return;  // too long: fall back to timeout
  std::memcpy(g_current_lease, path.c_str(), path.size() + 1);
  g_lease_armed = 1;
}

void disarm_lease_release() { g_lease_armed = 0; }

[[noreturn]] void chaos_die(const ChaosPolicy& chaos) {
  // SIGKILL leaves every mess behind (lease, torn temps); SIGTERM runs
  // the graceful handler above. Both end the process here.
  ::raise(chaos.sigkill ? SIGKILL : SIGTERM);
  ::_exit(137);  // unreachable unless signals are blocked externally
}

/// Refreshes one lease every kHeartbeatSeconds until told to stop. A
/// worker wedged inside a long solve keeps its lease fresh through this
/// thread; a SIGKILLed worker takes the thread down with it, and the
/// lease goes stale — exactly the signal the orchestrator keys
/// reassignment on.
class Heartbeat {
 public:
  Heartbeat(std::string path, std::string owner)
      : path_(std::move(path)), owner_(std::move(owner)) {
    thread_ = std::thread([this] {
      const std::chrono::duration<double> period(kHeartbeatSeconds);
      std::unique_lock<std::mutex> lock(mu_);
      std::uint64_t beats = 0;
      while (!stop_) {
        cv_.wait_for(lock, period);
        if (stop_) break;
        cache::lease_heartbeat(path_, owner_, ++beats);
      }
    });
  }

  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::string path_;
  std::string owner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::size_t chaos_kill_phase(const ChaosPolicy& chaos,
                             std::size_t unit_index) {
  return static_cast<std::size_t>(
      exec::splitmix64(chaos.seed ^ (0x51ed270bull + unit_index)) % 3);
}

void WorkerOptions::validate() const {
  const auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("WorkerOptions: ") + msg);
  };
  if (study_dir.empty()) fail("study_dir must not be empty");
  if (cache_dir.empty()) fail("cache_dir must not be empty");
}

int worker_main(const Manifest& manifest, const WorkerOptions& options) {
  try {
    options.validate();
    manifest.spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orch::worker_main: %s\n", e.what());
    return 2;
  }
  const std::string owner =
      options.worker_id.empty()
          ? "pid-" + std::to_string(static_cast<long>(::getpid()))
          : options.worker_id;

  std::signal(SIGTERM, worker_sigterm_handler);
  std::signal(SIGINT, worker_sigterm_handler);

  // Workers disable warm starts (bitwise contract, see header) and run
  // the solver serially — parallelism comes from the process fan-out.
  cache::CacheOptions cache_options;
  cache_options.dir = options.cache_dir;
  cache_options.warm_start = false;
  cache::SolveCache cache(cache_options);

  exec::RunContext ctx;
  ctx.exec = exec::ExecPolicy::serial();
  ctx.cache = &cache;

  const core::ScalingStudy study(compact::paper_calibration(),
                                 study_options_for(manifest.spec));
  std::size_t claimed = 0;

  // Scan until a full pass claims nothing: then every unit is either
  // published, poisoned, or leased to a live peer — this worker is done
  // either way (the orchestrator respawns workers if leases go stale).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const WorkUnit& unit : manifest.units) {
      UnitResult existing;
      if (load_unit_result(cache, unit, existing)) continue;
      if (unit_poisoned(options.study_dir, unit.index)) continue;
      const std::string lease = lease_path(options.study_dir, unit.index);
      if (!cache::lease_try_acquire(lease, owner)) continue;

      progressed = true;
      ++claimed;
      arm_lease_release(lease);
      const bool chaos_here = options.chaos.armed() &&
                              claimed == options.chaos.kill_after_units;
      const std::size_t kill_phase =
          chaos_here ? chaos_kill_phase(options.chaos, unit.index) : 3;
      if (kill_phase == 0) chaos_die(options.chaos);

      {
        Heartbeat heartbeat(lease, owner);
        const UnitResult result = solve_unit(
            study, manifest.spec, unit, ctx, [&](UnitPhase phase) {
              if (phase == UnitPhase::kAfterEquilibrium && kill_phase == 1) {
                chaos_die(options.chaos);
              }
              if (phase == UnitPhase::kAfterSolve && kill_phase == 2) {
                chaos_die(options.chaos);
              }
            });
        publish_unit_result(cache, unit, result);
      }
      disarm_lease_release();
      cache::lease_release(lease);
    }
  }
  return 0;
}

}  // namespace subscale::orch
