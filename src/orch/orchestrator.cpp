#include "orch/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/lease.h"
#include "cache/solve_cache.h"
#include "obs/names.h"

namespace subscale::orch {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// How long the orchestrator sleeps between scans of the fleet [s].
constexpr double kPollSeconds = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Orchestrator-side view of one manifest unit's lifecycle.
struct UnitTrack {
  bool done = false;
  bool resumed = false;
  bool poisoned = false;
  std::size_t retries = 0;
  bool release_pending = false;  ///< stale lease awaiting backoff expiry
  Clock::time_point release_at{};
  UnitResult result;
};

struct WorkerProc {
  pid_t pid = -1;
  std::size_t index = 0;  ///< spawn slot (worker id derives from it)
};

/// orch.* counter handles, resolved once (Instruments pattern).
struct OrchCounters {
  obs::Counter* total = nullptr;
  obs::Counter* claimed = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* reassigned = nullptr;
  obs::Counter* poisoned = nullptr;
  obs::Counter* restarts = nullptr;

  explicit OrchCounters(obs::MetricsRegistry* sink) {
    if (sink == nullptr) return;
    namespace names = obs::names;
    total = &sink->counter(names::kOrchUnitsTotal);
    claimed = &sink->counter(names::kOrchClaimed);
    completed = &sink->counter(names::kOrchCompleted);
    reassigned = &sink->counter(names::kOrchReassigned);
    poisoned = &sink->counter(names::kOrchPoisoned);
    restarts = &sink->counter(names::kOrchWorkerRestarts);
  }
  static void bump(obs::Counter* c, std::uint64_t n = 1) {
    if (c != nullptr && n > 0) c->add(n);
  }
};

/// Fork a worker that runs worker_main on the in-memory manifest. The
/// child runs library code without an exec, which is sound only while
/// no other thread runs in this process (see run_study).
pid_t spawn_worker(const Manifest& manifest, const OrchOptions& options,
                   const std::string& worker_id, const ChaosPolicy& chaos) {
  WorkerOptions wopts;
  wopts.study_dir = options.study_dir;
  wopts.cache_dir = options.cache_dir;
  wopts.worker_id = worker_id;
  wopts.chaos = chaos;

  // Buffered stdio crossing a fork duplicates into both processes.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  // The child IS the worker; it never returns into the parent's stack.
  if (pid == 0) ::_exit(worker_main(manifest, wopts));
  return pid;  // parent (or -1 on failure)
}

}  // namespace

void OrchOptions::validate() const {
  const auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("OrchOptions: ") + msg);
  };
  if (workers > 256) fail("workers must be <= 256");
  if (cache_dir.empty()) fail("cache_dir must not be empty");
  if (workers > 0 && study_dir.empty()) {
    fail("study_dir must not be empty when workers > 0");
  }
  if (!(lease_timeout_seconds > kHeartbeatSeconds)) {
    fail("lease_timeout_seconds must exceed the worker heartbeat period");
  }
  if (!(backoff_seconds >= 0)) fail("backoff_seconds must be >= 0");
  if (!(deadline_seconds > 0)) fail("deadline_seconds must be > 0");
}

bool StudyResult::complete() const {
  for (const UnitOutcome& o : outcomes) {
    if (!o.completed) return false;
  }
  return outcomes.size() == manifest.units.size();
}

std::string StudyResult::json() const {
  std::vector<const UnitResult*> results;
  results.reserve(outcomes.size());
  for (const UnitOutcome& o : outcomes) {
    results.push_back(o.completed ? &o.result : nullptr);
  }
  return study_result_json(manifest, results);
}

StudyResult run_study(const Manifest& manifest, const OrchOptions& options) {
  options.validate();
  manifest.spec.validate();

  OrchCounters counters(options.run.sink());
  const std::size_t n = manifest.units.size();
  OrchCounters::bump(counters.total, n);

  // The shared store every process publishes into. Warm starts stay off
  // (bitwise contract); torn temps from a previously killed run are
  // swept before anything reads the store.
  cache::CacheOptions cache_options;
  cache_options.dir = options.cache_dir;
  cache_options.warm_start = false;
  cache_options.metrics = options.run.metrics;
  cache::SolveCache cache(cache_options);
  cache.sweep_stale_temps(options.lease_timeout_seconds);

  StudyResult out;
  out.manifest = manifest;
  out.report.units_total = n;
  std::vector<UnitTrack> track(n);

  // ---- resume scan: published results ARE the checkpoint ------------------
  std::size_t remaining = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (load_unit_result(cache, manifest.units[i], track[i].result)) {
      track[i].done = true;
      track[i].resumed = true;
      ++out.report.resumed;
      ++out.report.completed;
      OrchCounters::bump(counters.completed);
    } else if (!options.study_dir.empty() &&
               unit_poisoned(options.study_dir, manifest.units[i].index)) {
      // Poison markers persist across reruns: a unit a previous run gave
      // up on is not silently retried (clear the marker to force one).
      track[i].poisoned = true;
      ++out.report.poisoned;
      OrchCounters::bump(counters.poisoned);
    } else {
      ++remaining;
    }
  }

  if (remaining > 0 && options.workers == 0) {
    // ---- serial reference mode ---------------------------------------------
    const core::ScalingStudy study(compact::paper_calibration(),
                                   study_options_for(manifest.spec));
    exec::RunContext ctx = options.run;
    ctx.exec = exec::ExecPolicy::serial();
    ctx.cache = &cache;
    for (std::size_t i = 0; i < n; ++i) {
      if (track[i].done || track[i].poisoned) continue;
      OrchCounters::bump(counters.claimed);
      ++out.report.claimed;
      track[i].result =
          solve_unit(study, manifest.spec, manifest.units[i], ctx);
      publish_unit_result(cache, manifest.units[i], track[i].result);
      track[i].done = true;
      ++out.report.completed;
      OrchCounters::bump(counters.completed);
    }
    remaining = 0;
  }

  if (remaining > 0) {
    // ---- multi-process mode --------------------------------------------------
    // A study dir that cannot hold leases fails here, not as workers
    // that exit without a claim and are respawned until the deadline.
    std::error_code ec;
    fs::create_directories(options.study_dir + "/leases", ec);
    if (ec) {
      throw std::runtime_error("run_study: cannot create " +
                               options.study_dir + "/leases: " +
                               ec.message());
    }
    const Clock::time_point start = Clock::now();
    std::vector<WorkerProc> workers;
    std::size_t spawned = 0;
    const auto spawn = [&](const ChaosPolicy& chaos) {
      const std::size_t slot = spawned++;
      const pid_t pid = spawn_worker(
          manifest, options, "w" + std::to_string(slot), chaos);
      if (pid > 0) workers.push_back({pid, slot});
      return pid > 0;
    };
    const std::size_t initial =
        std::min(options.workers, std::max<std::size_t>(remaining, 1));
    for (std::size_t i = 0; i < initial; ++i) spawn(options.chaos);

    const ChaosPolicy respawn_chaos =
        options.rearm_chaos ? options.chaos : ChaosPolicy{};

    while (true) {
      // Reap dead workers (chaos victims and clean exits alike).
      for (std::size_t w = 0; w < workers.size();) {
        int status = 0;
        const pid_t r = ::waitpid(workers[w].pid, &status, WNOHANG);
        if (r == workers[w].pid) {
          workers.erase(workers.begin() + static_cast<long>(w));
        } else {
          ++w;
        }
      }

      // Scan units: published? poisoned by a worker? stale lease?
      std::size_t claimable = 0;
      remaining = 0;
      for (std::size_t i = 0; i < n; ++i) {
        UnitTrack& t = track[i];
        if (t.done || t.poisoned) continue;
        const std::size_t index = manifest.units[i].index;
        if (load_unit_result(cache, manifest.units[i], t.result)) {
          t.done = true;
          ++out.report.completed;
          OrchCounters::bump(counters.completed);
          OrchCounters::bump(counters.claimed);
          ++out.report.claimed;
          cache::lease_release(lease_path(options.study_dir, index));
          continue;
        }
        if (unit_poisoned(options.study_dir, index)) {
          t.poisoned = true;
          ++out.report.poisoned;
          OrchCounters::bump(counters.poisoned);
          continue;
        }
        ++remaining;

        const std::string lease = lease_path(options.study_dir, index);
        if (t.release_pending) {
          if (Clock::now() >= t.release_at) {
            cache::lease_release(lease);
            t.release_pending = false;
            ++claimable;
          }
          continue;
        }
        const cache::LeaseInfo info = cache::lease_inspect(lease);
        if (!info.exists) {
          ++claimable;
          continue;
        }
        if (info.age_seconds <= options.lease_timeout_seconds) continue;
        // Dead owner. Reassign with exponential backoff, or poison once
        // the retry budget is spent.
        ++t.retries;
        ++out.report.reassigned;
        OrchCounters::bump(counters.reassigned);
        if (t.retries > options.retry_budget) {
          poison_unit(options.study_dir, index,
                      "retry budget exhausted after " +
                          std::to_string(t.retries - 1) + " reassignments");
          cache::lease_release(lease);
          t.poisoned = true;
          ++out.report.poisoned;
          OrchCounters::bump(counters.poisoned);
          --remaining;
          continue;
        }
        double backoff = options.backoff_seconds;
        for (std::size_t k = 1; k < t.retries; ++k) backoff *= 2.0;
        t.release_pending = true;
        t.release_at =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(backoff));
      }

      if (remaining == 0) break;

      if (seconds_since(start) > options.deadline_seconds) {
        out.report.deadline_hit = true;
        for (std::size_t i = 0; i < n; ++i) {
          if (track[i].done || track[i].poisoned) continue;
          poison_unit(options.study_dir, manifest.units[i].index,
                      "deadline");
          track[i].poisoned = true;
          ++out.report.poisoned;
          OrchCounters::bump(counters.poisoned);
        }
        break;
      }

      // Keep the fleet at strength while claimable work exists. Workers
      // exit when a scan claims nothing, so respawn is gated on an
      // actually-claimable unit to avoid fork churn against units still
      // serving their backoff.
      while (claimable > 0 && workers.size() < options.workers &&
             workers.size() < remaining) {
        if (!spawn(spawned < options.workers ? options.chaos
                                             : respawn_chaos)) {
          break;
        }
        if (spawned > options.workers) {
          ++out.report.worker_restarts;
          OrchCounters::bump(counters.restarts);
        }
        --claimable;
      }

      std::this_thread::sleep_for(
          std::chrono::duration<double>(kPollSeconds));
    }

    // Drain the fleet: ask nicely (workers release leases on SIGTERM),
    // then reap.
    for (const WorkerProc& w : workers) ::kill(w.pid, SIGTERM);
    for (const WorkerProc& w : workers) {
      int status = 0;
      ::waitpid(w.pid, &status, 0);
    }
  }

  out.outcomes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    UnitOutcome& o = out.outcomes[i];
    o.unit = manifest.units[i].index;
    o.completed = track[i].done;
    o.resumed = track[i].resumed;
    o.poisoned = track[i].poisoned;
    o.reassignments = track[i].retries;
    if (track[i].done) o.result = std::move(track[i].result);
  }
  return out;
}

bool write_study_result(const std::string& path, const StudyResult& result) {
  const std::string text = result.json();
  return cache::atomic_write_file(path, text.data(), text.size());
}

}  // namespace subscale::orch
