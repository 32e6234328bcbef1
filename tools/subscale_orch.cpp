// Study orchestrator CLI: shard a study into a manifest, run it across
// N worker processes (or serially with --workers 0), merge the
// published results into one canonical JSON artifact. Rerunning the
// same command against the same --cache-dir resumes: already-published
// units are counted as completed and only the remainder is solved.
//
//   subscale_orch --study-dir DIR --cache-dir DIR [--workers N]
//                 [--out result.json] [--card ID_OR_FILE]
//                 [--nodes 0,1,2,3] [--vd 0.25]
//                 [--points N] [--strategies supervth,subvth]
//                 [--coarse-mesh] [--retry-budget N]
//                 [--lease-timeout S] [--deadline S]
//                 [--chaos-kill-after N] [--chaos-seed S]
//                 [--chaos-sigterm] [--rearm-chaos]
//
// Workers are forked children of this process that run the worker loop
// on the study's in-memory manifest.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cache/solve_cache.h"
#include "obs/metrics.h"
#include "orch/orchestrator.h"

using namespace subscale;

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --study-dir DIR --cache-dir DIR [--workers N]\n"
               "          [--out FILE] [--card ID_OR_FILE]"
               " [--nodes i,j,...] [--vd V]\n"
               "          [--points N]\n"
               "          [--strategies supervth,subvth] [--coarse-mesh]\n"
               "          [--retry-budget N] [--lease-timeout S]"
               " [--deadline S]\n"
               "          [--chaos-kill-after N] [--chaos-seed S]"
               " [--chaos-sigterm]\n"
               "          [--rearm-chaos]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  orch::StudySpec spec;
  orch::OrchOptions options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--study-dir" && (v = next())) {
      options.study_dir = v;
    } else if (arg == "--cache-dir" && (v = next())) {
      options.cache_dir = v;
    } else if (arg == "--workers" && (v = next())) {
      options.workers = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--out" && (v = next())) {
      out_path = v;
    } else if (arg == "--card" && (v = next())) {
      spec.card = v;
    } else if (arg == "--nodes" && (v = next())) {
      for (const std::string& tok : split_commas(v)) {
        spec.nodes.push_back(static_cast<std::size_t>(std::atol(tok.c_str())));
      }
    } else if (arg == "--vd" && (v = next())) {
      spec.vds = {std::atof(v)};
    } else if (arg == "--points" && (v = next())) {
      spec.points = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--strategies" && (v = next())) {
      spec.strategies.clear();
      for (const std::string& tok : split_commas(v)) {
        core::Strategy s;
        if (!core::parse_strategy(tok, s)) return usage(argv[0]);
        spec.strategies.push_back(s);
      }
    } else if (arg == "--coarse-mesh") {
      spec.mesh = tcad::kCoarseMesh;
    } else if (arg == "--retry-budget" && (v = next())) {
      options.retry_budget = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--lease-timeout" && (v = next())) {
      options.lease_timeout_seconds = std::atof(v);
    } else if (arg == "--deadline" && (v = next())) {
      options.deadline_seconds = std::atof(v);
    } else if (arg == "--chaos-kill-after" && (v = next())) {
      options.chaos.kill_after_units =
          static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--chaos-seed" && (v = next())) {
      options.chaos.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--chaos-sigterm") {
      options.chaos.sigkill = false;
    } else if (arg == "--rearm-chaos") {
      options.rearm_chaos = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.study_dir.empty() || options.cache_dir.empty()) {
    return usage(argv[0]);
  }

  obs::MetricsRegistry registry;
  options.run.metrics = &registry;

  try {
    const orch::Manifest manifest = orch::build_manifest(spec);
    const orch::StudyResult result = orch::run_study(manifest, options);
    if (!out_path.empty() && !orch::write_study_result(out_path, result)) {
      std::fprintf(stderr, "subscale_orch: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::printf(
        "study: units=%zu completed=%zu resumed=%zu claimed=%zu "
        "reassigned=%zu poisoned=%zu restarts=%zu%s\n",
        result.report.units_total, result.report.completed,
        result.report.resumed, result.report.claimed,
        result.report.reassigned, result.report.poisoned,
        result.report.worker_restarts,
        result.report.deadline_hit ? " DEADLINE" : "");
    return result.complete() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subscale_orch: %s\n", e.what());
    return 1;
  }
}
