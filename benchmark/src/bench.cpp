#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "io/trace_export.h"
#include "io/writer.h"
#include "obs/names.h"

namespace bench {

namespace obs = subscale::obs;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a launcher
  // script's footprint would leak into the figure.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

namespace {

// The probe's LU: n and the bandwidth of a 90 nm device's Jacobian, in
// LAPACK-style column-major band storage with room for pivoting fill-in.
constexpr std::size_t kProbeN = 943;
constexpr std::size_t kProbeBand = 41;  // kl = ku
constexpr std::size_t kProbeLd = 3 * kProbeBand + 1;
constexpr std::size_t kProbeDiag = 2 * kProbeBand;  // storage row of a(c, c)
constexpr int kProbeFactorizations = 6;
constexpr int kProbeChain = 140000;

}  // namespace

HostProbe::HostProbe(Cpus cpus) : cpus_(cpus), band_(kProbeN * kProbeLd) {}

void HostProbe::sample() {
  cpu_set_t allowed;
  if (cpus_ == Cpus::kOwn ||
      sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    ms_.push_back(run_kernel());
    return;
  }
  double sum = 0.0;
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    sum += run_kernel();
    ++n;
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  ms_.push_back(n > 0 ? sum / n : run_kernel());
}

double HostProbe::run_kernel() {
  const auto t0 = Clock::now();
  double* ab = band_.data();
  for (int rep = 0; rep < kProbeFactorizations; ++rep) {
    // A fixed, diagonally heavy band; storage row r of column c holds
    // a(c + r - kProbeDiag, c).
    for (std::size_t c = 0; c < kProbeN; ++c) {
      for (std::size_t r = 0; r < kProbeLd; ++r) {
        const std::size_t row = c + r;
        double v = 0.0;
        if (r >= kProbeBand && row >= kProbeDiag && row - kProbeDiag < kProbeN) {
          v = r == kProbeDiag ? 3.0 + static_cast<double>(c % 5)
                              : 1.0 / (2.0 + static_cast<double>((c + r) % 11));
        }
        ab[c * kProbeLd + r] = v;
      }
    }
    for (std::size_t k = 0; k < kProbeN; ++k) {
      const std::size_t below = std::min(kProbeN - 1, k + kProbeBand) - k;
      double* colk = ab + k * kProbeLd + kProbeDiag;
      std::size_t pivot = 0;
      for (std::size_t i = 1; i <= below; ++i) {
        if (std::abs(colk[i]) > std::abs(colk[pivot])) pivot = i;
      }
      const std::size_t last = std::min(kProbeN - 1, k + 2 * kProbeBand);
      for (std::size_t c = k; pivot != 0 && c <= last; ++c) {
        double* col = ab + c * kProbeLd + (kProbeDiag + k - c);
        std::swap(col[0], col[pivot]);
      }
      for (std::size_t i = 1; i <= below; ++i) colk[i] /= colk[0];
      for (std::size_t c = k + 1; c <= last; ++c) {
        double* col = ab + c * kProbeLd + (kProbeDiag + k - c);
        const double u = col[0];
        if (u == 0.0) continue;
        for (std::size_t i = 1; i <= below; ++i) col[i] -= colk[i] * u;
      }
    }
    sink_ = sink_ + ab[(kProbeN / 2) * kProbeLd + kProbeDiag];
  }
  double x = 0.3;
  for (int i = 0; i < kProbeChain; ++i) {
    x = std::log1p(std::exp(-0.7 * x)) + 1e-3 * static_cast<double>(i & 7);
  }
  sink_ = sink_ + x;
  return ms_since(t0);
}

double HostProbe::mean_ms() const {
  if (ms_.empty()) return 0.0;
  double sum = 0.0;
  for (const double ms : ms_) sum += ms;
  return sum / static_cast<double>(ms_.size());
}

double HostProbe::slowdown() const { return mean_ms() / kReferenceMs; }

void EndToEnd::emit(Outcome& out) const {
  const double setup = median(setup_s);
  const double ops_per_s = unit_ms > 0.0 ? unit_ops / (unit_ms * 1e-3) : 0.0;
  const double slowdown = probe.slowdown();
  out.notes["raw_setup_s"] = setup;
  out.notes["raw_ops_per_s"] = ops_per_s;
  out.notes["probe_ms"] = probe.mean_ms();
  out.metrics["setup_s"] = slowdown > 0.0 ? setup / slowdown : 0.0;
  out.metrics["ops_per_s"] = ops_per_s * slowdown;
  out.metrics["ok_frac"] =
      out.attempted > 0 ? 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                        : 0.0;
  out.metrics["peak_rss_mb"] = peak_rss_mb();
}

void Tracer::begin_unit(bool traced) {
  if (!traced) return;
  profiler_ = std::make_unique<obs::SpanProfiler>();
  obs::set_default_registry(&registry_);
  obs::set_default_profiler(profiler_.get());
}

void Tracer::end_unit() {
  if (profiler_ == nullptr) return;
  obs::set_default_profiler(nullptr);
  obs::set_default_registry(nullptr);
  auto snap = std::make_unique<obs::ProfileSnapshot>(profiler_->snapshot());
  for (const obs::ProfileRollupRow& row : snap->rollup()) {
    Rollup& r = rollup_[row.label];
    r.count += row.count;
    r.self_ms += row.self_ms;
  }
  registry_.counter(obs::names::kProfilerSpans).add(snap->spans.size());
  registry_.counter(obs::names::kProfilerSpansDropped).add(snap->dropped);
  if (first_snapshot_ == nullptr) first_snapshot_ = std::move(snap);
  profiler_.reset();
}

Tracer::Scope::Scope(Tracer& tracer, const char* label)
    : tracer_(tracer),
      label_(label),
      span_(tracer.profiler_.get(), label),
      t0_(Clock::now()) {}

Tracer::Scope::~Scope() {
  if (tracer_.in_traced_unit()) tracer_.record(label_, ms_since(t0_));
}

void Tracer::record(const std::string& label, double ms) {
  samples_[label].push_back(ms);
}

std::vector<double> Tracer::samples(const std::string& label) const {
  const auto it = samples_.find(label);
  return it != samples_.end() ? it->second : std::vector<double>{};
}

void Tracer::finish(double traced_ops, const Config& config,
                    const char* workload,
                    std::initializer_list<const char*> idle_prefixes,
                    Outcome& out) {
  const obs::MetricsSnapshot snap = registry_.snapshot();
  const double per = traced_ops > 0.0 ? 1.0 / traced_ops : 0.0;
  const auto count = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  out.metrics["tcad.gummel.outer_iterations_per_op"] =
      count(obs::names::kGummelOuterIterations) * per;
  out.metrics["tcad.poisson.newton_iterations_per_op"] =
      count(obs::names::kPoissonNewtonIterations) * per;
  out.metrics["tcad.continuity.solves_per_op"] =
      count(obs::names::kContinuitySolves) * per;
  out.metrics["tcad.gummel.retries_per_op"] =
      count(obs::names::kGummelRetries) * per;

  const double hit = count(obs::names::kCacheHit);
  const double miss = count(obs::names::kCacheMiss);
  out.metrics["cache.hit_ratio"] = hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
  out.metrics["cache.hit_per_op"] = hit * per;
  out.metrics["cache.miss_per_op"] = miss * per;
  out.metrics["cache.store_per_op"] = count(obs::names::kCacheStore) * per;
  out.metrics["cache.warmstart_per_op"] =
      count(obs::names::kCacheWarmstart) * per;

  out.metrics["serve.executed_per_op"] =
      count(obs::names::kServeExecuted) * per;
  out.metrics["serve.coalesced_per_op"] =
      count(obs::names::kServeCoalesced) * per;
  out.metrics["serve.queue_depth_max"] =
      snap.gauge(obs::names::kServeQueueDepthMax);
  out.metrics["exec.pool.utilization_pct"] =
      snap.gauge(obs::names::kPoolUtilizationPct);
  out.metrics["obs.profiler.spans_dropped"] =
      count(obs::names::kProfilerSpansDropped);

  namespace spans = obs::names::spans;
  const std::pair<const char*, const char*> kernels[] = {
      {spans::kGummelPoisson, "prof.tcad.gummel.poisson"},
      {spans::kGummelContinuity, "prof.tcad.gummel.continuity"},
      {spans::kBandedLuSolve, "prof.linalg.banded_lu.solve"},
  };
  for (const auto& [label, key] : kernels) {
    const auto it = rollup_.find(label);
    const Rollup r = it != rollup_.end() ? it->second : Rollup{};
    out.metrics[std::string(key) + ".self_ms_per_op"] = r.self_ms * per;
    out.metrics[std::string(key) + ".calls_per_op"] =
        static_cast<double>(r.count) * per;
  }

  double overhead = 0.0;
  if (unit_ms_[0] > 0.0 && unit_ms_[1] > 0.0 && unit_ops_[1] > 0.0) {
    overhead = (unit_ops_[0] / unit_ms_[0]) / (unit_ops_[1] / unit_ms_[1]);
    overhead = (overhead - 1.0) * 100.0;
  }
  out.metrics["trace_overhead_pct"] = overhead;

  for (const auto& [name, value] : out.metrics) {
    for (const char* prefix : idle_prefixes) {
      if (name.rfind(prefix, 0) == 0 && value != 0.0) {
        out.fail_check("idle layer did work: " + name + " = " +
                       std::to_string(value));
      }
    }
  }

  const std::string path =
      config.work_dir + "/TRACE_" + std::string(workload) + ".json";
  bool written = false;
  if (first_snapshot_ != nullptr) {
    subscale::io::JsonWriter w;
    subscale::io::write_chrome_trace(w, *first_snapshot_);
    const std::string text = w.str();
    if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
      written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      written = std::fclose(f) == 0 && written;
    }
  }
  if (!written) std::fprintf(stderr, "benchmark: cannot write %s\n", path.c_str());
}

}  // namespace bench
