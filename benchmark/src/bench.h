#pragma once

/// \file bench.h
/// Shared harness of the repository benchmark: run configuration, the
/// per-run outcome every workload returns, latency statistics, and the
/// Tracer that times calls into the library from the benchmark's own
/// code.
///
/// A workload runs "units" (one paper pass, one cross-validation rep,
/// one query round) until the measurement window closes. Under
/// `--trace 1` units alternate untraced/traced: traced units install the
/// process-default metrics registry and a fresh span profiler, so the
/// library's existing counters and spans flow in exactly as they do for
/// the repo's own benches, while untraced units give the reference
/// throughput the tracing overhead is measured against.

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/rng.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Seeded Fisher-Yates shuffle driven by exec::seed_stream, so an order
/// depends on (seed, stream) only and is the same on every platform.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t seed, std::uint64_t stream) {
  const std::uint64_t s = subscale::exec::seed_stream(seed, stream);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[subscale::exec::seed_stream(s, i - 1) % i]);
  }
}

struct Config {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// 1/10-size units (query rounds); run.sh --smoke.
  bool smoke = false;
  /// Scratch directory for the query-mix socket and for
  /// TRACE_<workload>.json; run.sh keeps its run logs there too.
  std::string work_dir = ".bench_build/run";
};

/// What a workload hands back to main: the verdict, the op tallies and
/// its metrics by name. main() emits them in BENCHMARK.json order.
struct Outcome {
  std::vector<std::string> problems;  ///< failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Printed beside the metrics, not part of the result line.
  std::map<std::string, double> notes;

  void fail_check(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const { return problems.empty() && failed == 0; }
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty set.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// Peak resident set of this process image [MiB] (VmHWM).
double peak_rss_mb();

/// Measures how fast the host runs right now. On a shared VM host other
/// tenants slow the cores, caches and memory in waves of seconds to
/// minutes, by up to 2x, without taking CPU time from the VM; every
/// workload slows with them. The probe is a fixed kernel owned by the
/// benchmark and never changed with the library: a banded LU
/// factorization the size of a 90 nm TCAD Jacobian (most of a cold
/// device solve) plus a dependent exp/log chain (the compact model's
/// arithmetic), about 70/30 by time. Workloads sample it before every
/// unit, outside the timed window.
///
/// The slowdown differs from one vCPU to the next, so the probe runs
/// where the workload's work runs: a serial workload times it on its
/// own thread's CPU, a multi-threaded one on every CPU in turn.
class HostProbe {
 public:
  /// Median probe time on the reference box, over the runs recorded in
  /// benchmark/README.md [ms].
  static constexpr double kReferenceMs = 22.0;

  enum class Cpus {
    kOwn,    ///< the calling thread's CPU, wherever the scheduler has it
    kEvery,  ///< each CPU the process may run on, pinned in turn
  };

  explicit HostProbe(Cpus cpus);
  /// Times the kernel (about 20 ms per CPU) and records the mean over
  /// the CPUs it ran on.
  void sample();
  /// Mean probe time of this run [ms]; 0 before the first sample.
  double mean_ms() const;
  /// mean_ms() / kReferenceMs: above 1 when the host ran slower than
  /// the reference box.
  double slowdown() const;

 private:
  double run_kernel();

  Cpus cpus_;
  std::vector<double> band_;  ///< band storage, refilled every run
  std::vector<double> ms_;
  volatile double sink_ = 0.0;  ///< keeps the kernel from being elided
};

/// Fills the end-to-end metrics every workload reports, each over the
/// whole run: set-up as a median (set-up is repeated after every
/// untraced unit), throughput as the untraced units' ops over their
/// summed wall time. Both timings are scaled to the reference box's
/// speed by the run's HostProbe::slowdown(): across runs on the shared
/// reference host, every workload's throughput moved in proportion to
/// the probe's speed, so the scaled figures follow the code rather than
/// the neighbours. The unscaled values go to Outcome::notes.
struct EndToEnd {
  explicit EndToEnd(HostProbe::Cpus cpus) : probe(cpus) {}

  std::vector<double> setup_s;  ///< one per set-up repetition
  double unit_ops = 0.0;        ///< ops of the untraced units
  double unit_ms = 0.0;         ///< their wall time
  HostProbe probe;

  void add_unit(double ops, double ms) {
    unit_ops += ops;
    unit_ms += ms;
  }
  void emit(Outcome& out) const;
};

/// Times calls into the library and, in traced units, records spans and
/// per-call latency samples. Accumulates the profiler roll-up across
/// traced units and keeps the first traced unit's spans for export.
/// Used from the workload's driving thread only; the library's own spans
/// may come from any thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Under --trace 1 every odd unit is traced.
  bool traced_unit(std::size_t unit) const {
    return enabled_ && unit % 2 == 1;
  }

  /// Open/close a unit: a traced one installs the registry and a fresh
  /// profiler as the process defaults; closing uninstalls them and folds
  /// the unit's spans into the roll-up.
  void begin_unit(bool traced);
  void end_unit();
  bool in_traced_unit() const { return profiler_ != nullptr; }
  /// Tally a finished unit's ops and wall time for trace_overhead_pct.
  void note_unit(bool traced, double ops, double ms) {
    unit_ops_[traced ? 1 : 0] += ops;
    unit_ms_[traced ? 1 : 0] += ms;
  }

  /// RAII: one span labelled `label` plus a latency sample under the
  /// same label (traced units only). Labels must be static strings.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* label);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    const char* label_;
    subscale::obs::ScopedSpan span_;
    Clock::time_point t0_;
  };
  Scope scope(const char* label) { return Scope(*this, label); }

  /// Record a latency sample directly (for work timed elsewhere).
  void record(const std::string& label, double ms);
  /// Samples of one label (empty when never recorded).
  std::vector<double> samples(const std::string& label) const;

  subscale::obs::MetricsRegistry& registry() { return registry_; }

  /// Finish a traced run: the per-layer metrics every workload reads the
  /// same way — registry counters (tcad effort, cache and serve traffic)
  /// and the profiler's self time and call counts of the TCAD kernels,
  /// each per op of the traced units since run length varies — plus
  /// trace_overhead_pct, and the first traced unit's spans written as
  /// <work_dir>/TRACE_<workload>.json. Metrics named under one of
  /// `idle_prefixes` belong to layers the workload must leave idle; any
  /// that reads non-zero fails the run.
  void finish(double traced_ops, const Config& config, const char* workload,
              std::initializer_list<const char*> idle_prefixes, Outcome& out);

 private:
  bool enabled_;
  double unit_ops_[2] = {0.0, 0.0};  ///< [untraced, traced]
  double unit_ms_[2] = {0.0, 0.0};
  subscale::obs::MetricsRegistry registry_;
  std::unique_ptr<subscale::obs::SpanProfiler> profiler_;
  std::unique_ptr<subscale::obs::ProfileSnapshot> first_snapshot_;
  /// Profiler roll-up accumulated over traced units.
  struct Rollup {
    std::uint64_t count = 0;
    double self_ms = 0.0;
  };
  std::map<std::string, Rollup> rollup_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Workload entry points.
Outcome run_paper_figures(const Config& config);
Outcome run_tcad_xval(const Config& config);
Outcome run_query_mix(const Config& config);

}  // namespace bench
