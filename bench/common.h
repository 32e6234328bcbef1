#pragma once

/// Shared scaffolding for the figure/table reproduction benches. Every
/// bench prints the paper's reported values next to this library's
/// measured values, states the shape criterion it targets, and emits a
/// machine-readable BENCH_<name>.json timing record through bench::run
/// so cross-run trajectories (wall time, headline metrics, shape
/// verdict) can be tracked without scraping stdout. When
/// SUBSCALE_PERFDB_DIR is set, every record is ALSO appended to the
/// perf-history store there (src/perfdb; SUBSCALE_GIT_REV stamps the
/// revision), which is what tools/obs_trend gates trends over.
///
/// Telemetry: bench::run installs a process-wide MetricsRegistry (via
/// obs::set_default_registry) before the body runs, preregisters the
/// standard metric schema, and writes the snapshot into the record's
/// "obs" block — so every BENCH json carries the full counter set
/// (gummel/poisson iterations, retries, pool utilization, ...) and
/// `obs_trend schema` can validate it.
///
/// Profiling: SUBSCALE_PROFILE=1 additionally installs a process-wide
/// SpanProfiler (obs::set_default_profiler), prints the self-time
/// roll-up after the shape verdict, and writes TRACE_<name>.json in
/// Chrome trace-event format — load it in chrome://tracing or
/// ui.perfetto.dev. The span totals also land in the "obs" block
/// (obs.profiler.spans / .spans_dropped), which stay zero when
/// profiling is off.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cache/solve_cache.h"
#include "cards/technology_card.h"
#include "core/scaling_study.h"
#include "exec/policy.h"
#include "io/series.h"
#include "io/table.h"
#include "io/writer.h"
#include "io/trace_export.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/profiler.h"
#include "perfdb/record.h"
#include "perfdb/store.h"

namespace bench {

/// The technology card the bench study runs on: SUBSCALE_CARD (a
/// builtin id or a card-file path) or the paper deck when unset — so
/// any bench re-runs on another deck without a rebuild:
///   SUBSCALE_CARD=paper_bulk_hot350 ./bench_table2_supervth
inline const subscale::cards::TechnologyCard& card() {
  static const subscale::cards::TechnologyCard c = [] {
    const char* env = std::getenv("SUBSCALE_CARD");
    return env != nullptr && env[0] != '\0'
               ? subscale::cards::resolve_card(env)
               : subscale::cards::paper_bulk_lstp();
  }();
  return c;
}

/// One study shared inside a binary (each binary is its own process),
/// built on the active card.
inline const subscale::core::ScalingStudy& study() {
  static const subscale::core::ScalingStudy s(
      subscale::compact::paper_calibration(), [] {
        subscale::core::StudyOptions options;
        options.card = card();
        return options;
      }());
  return s;
}

inline void header(const char* title, const char* paper_claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

inline void footer_shape(bool ok, const char* what) {
  std::printf("[shape %s] %s\n\n", ok ? "OK " : "MISS", what);
}

/// Node x-axis value (nm) for series, read off the active card's node
/// names ("90nm" -> 90.0) so extended decks chart correctly too.
inline double node_nm(std::size_t i) {
  return std::atof(study().node(i).name.c_str());
}

/// Headline numbers a bench wants in its JSON record, insertion-ordered.
class Record {
 public:
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

namespace detail {

/// The process-wide bench registry. Installs itself as the default
/// registry on first use so every layer below picks it up without
/// plumbing.
inline subscale::obs::MetricsRegistry& bench_registry() {
  static subscale::obs::MetricsRegistry* const reg = [] {
    static subscale::obs::MetricsRegistry registry;
    subscale::obs::names::preregister_standard(registry);
    subscale::obs::set_default_registry(&registry);
    return &registry;
  }();
  return *reg;
}

/// The process-wide bench profiler, or null unless SUBSCALE_PROFILE
/// opts in (profiling records every span of every solve, so it is off
/// by default where the registry is on by default). Installs itself as
/// the default profiler so the whole stack below picks it up.
inline subscale::obs::SpanProfiler* bench_profiler() {
  static subscale::obs::SpanProfiler* prof = [] {
    const char* env = std::getenv("SUBSCALE_PROFILE");
    if (env == nullptr || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "off") == 0) {
      return static_cast<subscale::obs::SpanProfiler*>(nullptr);
    }
    static subscale::obs::SpanProfiler profiler;
    subscale::obs::set_default_profiler(&profiler);
    return &profiler;
  }();
  return prof;
}

inline void write_record(const std::string& name, bool ok, double wall_ms,
                         const Record& record, bool interrupted = false) {
  namespace io = subscale::io;
  namespace obs = subscale::obs;

  // Fold the span totals into the registry before snapshotting it, so
  // the "obs" block carries them; export the trace itself alongside.
  if (obs::SpanProfiler* prof = bench_profiler(); prof != nullptr) {
    const obs::ProfileSnapshot snap = prof->snapshot();
    obs::MetricsRegistry& reg = bench_registry();
    reg.counter(obs::names::kProfilerSpans).add(snap.spans.size());
    reg.counter(obs::names::kProfilerSpansDropped).add(snap.dropped);
    std::printf("%s", snap.rollup_table().c_str());
    io::JsonWriter tw;
    io::write_chrome_trace(tw, snap);
    const std::string trace_path = "TRACE_" + name + ".json";
    if (std::FILE* tf = std::fopen(trace_path.c_str(), "w");
        tf != nullptr) {
      const std::string text = tw.str();
      std::fwrite(text.data(), 1, text.size(), tf);
      std::fclose(tf);
      std::printf("trace: %s (%zu spans)\n\n", trace_path.c_str(),
                  snap.spans.size());
    } else {
      std::fprintf(stderr, "bench: cannot write %s\n", trace_path.c_str());
    }
  }

  io::JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value(name);
  w.key("card");
  w.value(card().id);
  w.key("shape_ok");
  w.value(ok);
  if (interrupted) {
    w.key("interrupted");
    w.value(true);
  }
  w.key("wall_ms");
  w.value(wall_ms);
  w.key("threads");
  w.value(static_cast<std::uint64_t>(
      subscale::exec::ExecPolicy{}.resolved_threads()));
  w.key("metrics");
  w.begin_object();
  for (const auto& [key, value] : record.metrics()) {
    w.key(key);
    w.value(value);
  }
  w.end_object();
  w.key("obs");
  io::write_metrics_snapshot(w, bench_registry().snapshot());
  w.end_object();

  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  const std::string text = w.str();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);

  // SUBSCALE_PERFDB_DIR: additionally append this run to the perf
  // history (src/perfdb), the longitudinal form tools/obs_trend gates.
  // Interrupted records append too — stamped, so PerfDb::load skips
  // them while the file still shows them.
  if (const char* db_dir = std::getenv("SUBSCALE_PERFDB_DIR");
      db_dir != nullptr && db_dir[0] != '\0') {
    // The record is built from the BENCH text just written, the same
    // path `obs_trend append` ingests a BENCH file through.
    subscale::perfdb::PerfRecord pr;
    std::string error;
    if (!subscale::perfdb::record_from_bench_json(text, pr, &error)) {
      std::fprintf(stderr, "bench: cannot read back %s: %s\n", path.c_str(),
                   error.c_str());
      return;
    }
    if (const char* rev = std::getenv("SUBSCALE_GIT_REV");
        rev != nullptr) {
      pr.rev = rev;
    }
    pr.ts = static_cast<std::uint64_t>(std::time(nullptr));
    subscale::perfdb::PerfDb db(db_dir);
    if (!db.append(pr)) {
      std::fprintf(stderr, "bench: perfdb append to %s failed\n",
                   db.path_for(pr.bench).c_str());
    }
  }
}

/// State the interrupt handler needs to flush a partial record. A bench
/// is a single-document batch process, so one static slot suffices; the
/// `active` flag keeps the handler inert outside the timed body (and
/// after a first delivery, making a racing second signal harmless).
struct ActiveRun {
  std::string name;
  Record* record = nullptr;
  std::chrono::steady_clock::time_point start{};
  volatile std::sig_atomic_t active = 0;
};

inline ActiveRun& active_run() {
  static ActiveRun run;
  return run;
}

/// SIGINT/SIGTERM: flush the partial BENCH record (shape_ok false,
/// "interrupted" true, whatever metrics the body recorded so far, and
/// the trace under SUBSCALE_PROFILE=1), then re-raise with the default
/// disposition so the exit status still says "killed by signal".
/// Formatting JSON here is not strictly async-signal-safe; a bench is a
/// terminal batch tool where the alternative is losing the record, and
/// the worst torn outcome is an invalid file the next run overwrites —
/// the cache/orch layers never read BENCH json.
inline void interrupt_handler(int signo) {
  ActiveRun& run = active_run();
  if (run.active != 0) {
    run.active = 0;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - run.start)
            .count();
    std::printf("\nbench interrupted (signal %d): flushing partial record\n",
                signo);
    write_record(run.name, /*ok=*/false, wall_ms, *run.record,
                 /*interrupted=*/true);
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace detail

/// The common bench driver: prints the header, times the body, prints
/// the shape verdict, writes BENCH_<name>.json, and returns the process
/// exit code. The body fills `Record` with its headline metrics and
/// returns whether the shape criterion held. An interrupted bench
/// (SIGINT/SIGTERM mid-body) still flushes a valid partial record
/// marked "interrupted" before dying with the signal's default
/// disposition.
inline int run(const char* name, const char* title, const char* paper_claim,
               const char* shape_criterion,
               const std::function<bool(Record&)>& body) {
  detail::bench_registry();  // install telemetry before the body runs
  detail::bench_profiler();  // and the span profiler, if opted in
  // Honor SUBSCALE_CACHE / SUBSCALE_CACHE_DIR (no-op when unset): the
  // env-installed cache becomes the process default RunContext::
  // cache_sink() resolves to, and its traffic lands in the "obs" block
  // as the cache.* counters.
  subscale::cache::install_env_cache();
  header(title, paper_claim);
  Record record;
  const auto start = std::chrono::steady_clock::now();
  detail::ActiveRun& active = detail::active_run();
  active.name = name;
  active.record = &record;
  active.start = start;
  active.active = 1;
  std::signal(SIGINT, detail::interrupt_handler);
  std::signal(SIGTERM, detail::interrupt_handler);
  bool ok = false;
  try {
    ok = body(record);
  } catch (const std::exception& e) {
    std::printf("bench aborted: %s\n", e.what());
  }
  active.active = 0;  // from here the normal record path owns the file
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  footer_shape(ok, shape_criterion);
  std::printf("wall time: %.1f ms (record: BENCH_%s.json)\n\n", wall_ms, name);
  detail::write_record(name, ok, wall_ms, record);
  return ok ? 0 : 1;
}

}  // namespace bench
