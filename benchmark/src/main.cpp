// The repository benchmark binary: runs one workload in this process and
// prints its metrics, ending with one JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metric names and units come from BENCHMARK.json — the end-to-end
// set with --trace 0, the per-layer set with --trace 1.
//
//   subscale_benchmark --workload paper_figures|tcad_xval|query_mix
//                      [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//                      [--perfdb DIR] [--rev REV]
//
// Run from the repository root: it reads ./BENCHMARK.json and writes
// under ./.bench_build/run.
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the JSON line still reports it), 2 on a usage or spec error (no JSON).

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "io/json_parse.h"
#include "io/writer.h"
#include "perfdb/record.h"
#include "perfdb/store.h"

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metric list of one BENCHMARK.json section, in file order.
bool load_section(const subscale::io::JsonValue& spec, const char* section,
                  std::vector<MetricSpec>& out) {
  const subscale::io::JsonPtr list = spec.get(section);
  if (list == nullptr || list->kind() != subscale::io::JsonValue::Kind::kArray) {
    return false;
  }
  for (const subscale::io::JsonPtr& item : list->items()) {
    MetricSpec m{item->string_at("name"), item->string_at("unit")};
    if (m.name.empty() || m.unit.empty()) return false;
    out.push_back(std::move(m));
  }
  return !out.empty();
}

/// JsonWriter's document folded onto one line: each newline and the
/// indentation after it become one space (string values never hold a
/// raw newline).
std::string one_line(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\n') {
      out += text[i];
      continue;
    }
    while (i + 1 < text.size() && text[i + 1] == ' ') ++i;
    if (i + 1 < text.size()) out += ' ';
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "subscale_benchmark: %s\n"
               "usage: subscale_benchmark --workload "
               "paper_figures|tcad_xval|query_mix [--seed N] [--seconds S]\n"
               "       [--trace 0|1] [--smoke] [--perfdb DIR] [--rev REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Each workload pins its own threads, cache and card; none of the
  // library's environment switches may leak into a measurement.
  for (const char* var : {"SUBSCALE_THREADS", "SUBSCALE_CACHE",
                          "SUBSCALE_CACHE_DIR", "SUBSCALE_CACHE_FSYNC",
                          "SUBSCALE_CARD", "SUBSCALE_METRICS",
                          "SUBSCALE_PROFILE", "SUBSCALE_PERFDB_DIR"}) {
    unsetenv(var);
  }
  // Two malloc arenas instead of one per thread: with a fresh daemon's
  // threads every query round, per-thread arenas made query_mix's peak
  // RSS depend on thread timing (IQR 8-10 % of the median over seeds,
  // about 4 % with the cap).
  mallopt(M_ARENA_MAX, 2);
  // Freed memory stays with malloc instead of going back to the kernel,
  // so a solver's per-call matrices do not page-fault anew on every
  // call. On a shared VM host a fault's cost follows the host's load:
  // with default thresholds tcad_xval's ops_per_s spread 27.5 % across
  // seeds against 15.2 % with these, in interleaved runs.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const auto process_t0 = bench::Clock::now();

  bench::Config config;
  std::string workload;
  const std::string spec_path = "BENCHMARK.json";
  std::string perfdb_dir;
  std::string rev;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if ((value = next()) == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
    } else if (arg == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (arg == "--perfdb") {
      perfdb_dir = value;
    } else if (arg == "--rev") {
      rev = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  std::string error;
  const subscale::io::JsonPtr spec =
      subscale::io::json_parse_file(spec_path, &error);
  std::vector<MetricSpec> metrics;
  if (spec == nullptr ||
      !load_section(*spec, config.trace ? "per_layer" : "end_to_end",
                    metrics)) {
    std::fprintf(stderr, "subscale_benchmark: cannot read metrics from %s %s\n",
                 spec_path.c_str(), error.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "subscale_benchmark: cannot create %s: %s\n",
                 config.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  bench::Outcome outcome;
  std::size_t threads = 0;
  try {
    if (workload == "paper_figures") {
      outcome = bench::run_paper_figures(config);
      threads = 4;
    } else if (workload == "tcad_xval") {
      outcome = bench::run_tcad_xval(config);
      threads = 1;
    } else if (workload == "query_mix") {
      outcome = bench::run_query_mix(config);
      threads = 2;  // daemon workers
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    outcome.fail_check(std::string("workload aborted: ") + e.what());
  }
  if (outcome.attempted == 0) {  // aborted before its first op
    outcome.attempted = 1;
    outcome.failed = 1;
  }

  // Every listed metric must have been produced, and nothing else: a
  // per-layer metric this workload does not exercise reads 0.
  std::vector<std::pair<MetricSpec, double>> values;
  for (const MetricSpec& m : metrics) {
    const auto it = outcome.metrics.find(m.name);
    double value = it != outcome.metrics.end() ? it->second : 0.0;
    if (it == outcome.metrics.end() && !config.trace) {
      outcome.fail_check("metric " + m.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      outcome.fail_check("metric " + m.name + " is not finite");
      value = 0.0;
    }
    values.emplace_back(m, value);
  }
  for (const auto& [name, value] : outcome.metrics) {
    bool listed = false;
    for (const MetricSpec& m : metrics) listed = listed || m.name == name;
    if (!listed) outcome.fail_check("metric " + name + " is not in " + spec_path);
  }

  for (const auto& [m, value] : values) {
    std::printf("%-14s %-46s %16.6g %s\n", workload.c_str(), m.name.c_str(),
                value, m.unit.c_str());
  }
  for (const auto& [name, value] : outcome.notes) {
    std::printf("%-14s %-46s %16.6g (not scaled to the reference host)\n",
                workload.c_str(), name.c_str(), value);
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", workload.c_str(),
                 problem.c_str());
  }

  if (!perfdb_dir.empty()) {
    subscale::perfdb::PerfRecord record;
    record.bench = "benchmark_" + workload + (config.trace ? "_trace" : "");
    record.card = "paper_bulk_lstp";
    record.rev = rev;
    record.ts = static_cast<std::uint64_t>(std::time(nullptr));
    record.shape_ok = outcome.correct();
    record.wall_ms = bench::ms_since(process_t0);
    record.threads = threads;
    for (const auto& [m, value] : values) {
      record.metrics.emplace_back(m.name, value);
    }
    subscale::perfdb::PerfDb db(perfdb_dir);
    if (!db.append(record)) {
      std::fprintf(stderr, "subscale_benchmark: perfdb append to %s failed\n",
                   db.path_for(record.bench).c_str());
    }
  }

  subscale::io::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(outcome.correct());
  w.key("attempted");
  w.value(outcome.attempted);
  w.key("failed");
  w.value(outcome.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [m, value] : values) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(value);
    w.key("unit");
    w.value(std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", one_line(w.str()).c_str());
  return outcome.correct() ? 0 : 1;
}
