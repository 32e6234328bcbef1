// Design-query daemon: serve the subscale.query.v1 wire protocol on a
// Unix socket or TCP loopback port until SIGINT/SIGTERM.
//
//   subscale_serve (--socket PATH | --port N) [--cache-dir DIR]
//                  [--workers N] [--queue-cap N] [--per-client N]
//
// --port 0 binds an ephemeral port; the resolved endpoint is printed as
// the one "listening on ..." line once the server is up (scripts block
// on that line, then connect). --cache-dir points at a persistent solve
// cache: a daemon restarted onto a warm cache replays earlier answers
// bitwise (the kill/restart smoke in tools/check.sh relies on this).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "cache/solve_cache.h"
#include "obs/names.h"
#include "serve/server.h"

using namespace subscale;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --port N) [--cache-dir DIR]\n"
               "          [--workers N] [--queue-cap N] [--per-client N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string cache_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--socket" && (v = next())) {
      options.socket_path = v;
    } else if (arg == "--port" && (v = next())) {
      options.port = std::atoi(v);
    } else if (arg == "--cache-dir" && (v = next())) {
      cache_dir = v;
    } else if (arg == "--workers" && (v = next())) {
      options.workers = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--queue-cap" && (v = next())) {
      options.admission.queue_capacity =
          static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--per-client" && (v = next())) {
      options.admission.per_client_inflight =
          static_cast<std::size_t>(std::atol(v));
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty() && options.port < 0) {
    return usage(argv[0]);
  }

  obs::MetricsRegistry registry;
  obs::names::preregister_standard(registry);
  options.dispatcher.run.metrics = &registry;

  std::unique_ptr<cache::SolveCache> cache;
  if (!cache_dir.empty()) {
    cache::CacheOptions cache_options;
    cache_options.dir = cache_dir;
    cache_options.metrics = &registry;
    cache = std::make_unique<cache::SolveCache>(cache_options);
    options.dispatcher.run.cache = cache.get();
  }

  try {
    serve::Server server(options);
    server.start();
    if (!options.socket_path.empty()) {
      std::printf("subscale_serve: listening on unix:%s proto=%s\n",
                  options.socket_path.c_str(), serve::kProtocolVersion);
    } else {
      std::printf("subscale_serve: listening on tcp:127.0.0.1:%d proto=%s\n",
                  server.port(), serve::kProtocolVersion);
    }
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    std::printf("subscale_serve: stopped (executed=%llu coalesced=%llu)\n",
                static_cast<unsigned long long>(server.dispatcher().executed()),
                static_cast<unsigned long long>(
                    server.dispatcher().coalesced()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subscale_serve: %s\n", e.what());
    return 1;
  }
}
