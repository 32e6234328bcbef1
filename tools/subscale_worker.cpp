// CLI wrapper over orch::worker_main: claim units from a study manifest,
// solve them, publish into the shared cache. Spawned by subscale_orch
// (or by hand, for debugging a single worker against a study dir).
//
//   subscale_worker --manifest M.json --study-dir DIR --cache-dir DIR
//                   [--worker-id ID]
//                   [--chaos-kill-after N] [--chaos-seed S]
//                   [--chaos-sigterm]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "orch/worker.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --manifest M.json --study-dir DIR --cache-dir DIR\n"
               "          [--worker-id ID]\n"
               "          [--chaos-kill-after N] [--chaos-seed S]"
               " [--chaos-sigterm]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  subscale::orch::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--manifest" && (v = next())) {
      options.manifest_path = v;
    } else if (arg == "--study-dir" && (v = next())) {
      options.study_dir = v;
    } else if (arg == "--cache-dir" && (v = next())) {
      options.cache_dir = v;
    } else if (arg == "--worker-id" && (v = next())) {
      options.worker_id = v;
    } else if (arg == "--chaos-kill-after" && (v = next())) {
      options.chaos.kill_after_units =
          static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--chaos-seed" && (v = next())) {
      options.chaos.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--chaos-sigterm") {
      options.chaos.sigkill = false;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.manifest_path.empty() || options.study_dir.empty() ||
      options.cache_dir.empty()) {
    return usage(argv[0]);
  }
  return subscale::orch::worker_main(options);
}
