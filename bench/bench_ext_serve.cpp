// Extension bench — the design-query service under load.
//
// Phase 1 (cold): an in-process daemon (Unix socket, 2 workers) takes a
// mixed query stream — TCAD sweeps, design rows, a figure series — from
// 4 concurrent client threads issuing the SAME request list, so
// identical in-flight queries exercise the coalescing path and repeated
// sweeps exercise the solve cache. Reports throughput and p50/p95/p99
// response latency.
//
// Phase 2 (restart, warm): the daemon is torn down and a FRESH server —
// new Dispatcher, new SolveCache handle — comes up on the same cache
// directory, replaying the sweep queries from the persistent cache.
// The shape criterion demands the warm responses be byte-identical to
// the cold ones: a daemon restarted onto its cache dir recovers the
// exact same answers (the chaos smoke in tools/check.sh SIGKILLs a
// real daemon process over the same contract).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace subscale;

namespace {

/// The request list every client thread replays, ids left empty so
/// responses are byte-comparable across phases.
std::vector<serve::Query> request_list() {
  std::vector<serve::Query> list;
  for (std::size_t node : {std::size_t{0}, std::size_t{1}}) {
    serve::Query q;
    q.kind = serve::QueryKind::kSweep;
    q.node = node;
    q.points = 3;
    q.coarse_mesh = true;
    list.push_back(q);
  }
  for (core::Strategy strategy :
       {core::Strategy::kSuperVth, core::Strategy::kSubVth}) {
    for (std::size_t node = 0; node < 4; ++node) {
      serve::Query q;
      q.kind = serve::QueryKind::kDesign;
      q.strategy = strategy;
      q.node = node;
      list.push_back(q);
    }
  }
  {
    serve::Query q;
    q.kind = serve::QueryKind::kFigure;
    q.figure = "ss";
    q.strategy = core::Strategy::kSubVth;
    list.push_back(q);
  }
  return list;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

}  // namespace

int main() {
  return bench::run(
      "ext_serve",
      "Extension — design-query daemon under concurrent load",
      "a long-lived query service should batch identical work "
      "(coalescing + solve cache) and survive a restart with bitwise "
      "answer stability",
      "every response ok; warm restart replays the sweep responses "
      "byte-identical to the cold daemon's",
      [](bench::Record& rec) {
        namespace fs = std::filesystem;
        const fs::path dir =
            fs::temp_directory_path() /
            ("subscale-bench-serve-" + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::string cache_dir = (dir / "cache").string();

        const std::vector<serve::Query> requests = request_list();
        constexpr std::size_t kClients = 4;

        bool all_ok = true;
        std::vector<double> latencies_ms;
        std::vector<std::string> cold_sweep_bytes;  // thread 0's copies
        std::uint64_t executed = 0;
        std::uint64_t coalesced = 0;
        double load_wall_ms = 0.0;

        {
          cache::SolveCache cold_cache([&] {
            cache::CacheOptions c;
            c.dir = cache_dir;
            return c;
          }());
          serve::ServerOptions options;
          options.socket_path = (dir / "sock").string();
          options.workers = 2;
          options.dispatcher.run.cache = &cold_cache;
          serve::Server server(options);
          server.start();

          std::vector<std::thread> threads;
          std::vector<std::vector<double>> per_thread(kClients);
          std::vector<bool> thread_ok(kClients, true);
          const auto load_start = std::chrono::steady_clock::now();
          for (std::size_t t = 0; t < kClients; ++t) {
            threads.emplace_back([&, t] {
              serve::Client client;
              if (!client.connect_unix(server.socket_path())) {
                thread_ok[t] = false;
                return;
              }
              for (const serve::Query& q : requests) {
                const auto start = std::chrono::steady_clock::now();
                serve::Result r;
                if (!client.roundtrip(q, r) || !r.ok) {
                  thread_ok[t] = false;
                  continue;
                }
                per_thread[t].push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
                if (t == 0 && q.kind == serve::QueryKind::kSweep) {
                  cold_sweep_bytes.push_back(client.last_response_text());
                }
              }
            });
          }
          for (auto& thread : threads) thread.join();
          load_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - load_start)
                             .count();
          for (std::size_t t = 0; t < kClients; ++t) {
            all_ok = all_ok && thread_ok[t];
            latencies_ms.insert(latencies_ms.end(), per_thread[t].begin(),
                                per_thread[t].end());
          }
          executed = server.dispatcher().executed();
          coalesced = server.dispatcher().coalesced();
          server.stop();
        }

        std::sort(latencies_ms.begin(), latencies_ms.end());
        const double total_requests =
            static_cast<double>(kClients * requests.size());
        rec.metric("serve.load.requests", total_requests);
        rec.metric("serve.load.clients", static_cast<double>(kClients));
        rec.metric("serve.load.throughput_rps",
                   load_wall_ms > 0.0
                       ? total_requests / (load_wall_ms / 1e3)
                       : 0.0);
        rec.metric("serve.load.p50_ms", percentile(latencies_ms, 0.50));
        rec.metric("serve.load.p95_ms", percentile(latencies_ms, 0.95));
        rec.metric("serve.load.p99_ms", percentile(latencies_ms, 0.99));
        rec.metric("serve.load.executed", static_cast<double>(executed));
        rec.metric("serve.load.coalesced", static_cast<double>(coalesced));
        std::printf(
            "load: %zu clients x %zu requests, %.1f req/s "
            "(p50 %.2f ms, p95 %.2f ms, p99 %.2f ms)\n",
            kClients, requests.size(),
            total_requests / (load_wall_ms / 1e3),
            percentile(latencies_ms, 0.50), percentile(latencies_ms, 0.95),
            percentile(latencies_ms, 0.99));
        std::printf("dispatch: executed=%llu coalesced=%llu\n",
                    static_cast<unsigned long long>(executed),
                    static_cast<unsigned long long>(coalesced));

        // --- Phase 2: fresh server, same cache directory. ---
        bool warm_identical = all_ok && cold_sweep_bytes.size() == 2;
        std::vector<double> warm_latencies;
        std::uint64_t warm_hits = 0;
        {
          cache::SolveCache warm_cache([&] {
            cache::CacheOptions c;
            c.dir = cache_dir;
            return c;
          }());
          serve::ServerOptions options;
          options.socket_path = (dir / "sock2").string();
          options.workers = 2;
          options.dispatcher.run.cache = &warm_cache;
          serve::Server server(options);
          server.start();

          serve::Client client;
          if (client.connect_unix(server.socket_path())) {
            std::size_t sweep_index = 0;
            for (const serve::Query& q : requests) {
              if (q.kind != serve::QueryKind::kSweep) continue;
              const auto start = std::chrono::steady_clock::now();
              serve::Result r;
              if (!client.roundtrip(q, r) || !r.ok) {
                warm_identical = false;
                continue;
              }
              warm_latencies.push_back(
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count());
              if (sweep_index >= cold_sweep_bytes.size() ||
                  client.last_response_text() !=
                      cold_sweep_bytes[sweep_index]) {
                warm_identical = false;
              }
              ++sweep_index;
            }
          } else {
            warm_identical = false;
          }
          warm_hits = warm_cache.stats().hits;
          server.stop();
        }
        std::sort(warm_latencies.begin(), warm_latencies.end());
        rec.metric("serve.warm.p50_ms", percentile(warm_latencies, 0.50));
        rec.metric("serve.warm.cache_hits", static_cast<double>(warm_hits));
        rec.metric("serve.warm.bitwise_identical",
                   warm_identical ? 1.0 : 0.0);
        std::printf(
            "restart: warm p50 %.2f ms, cache hits %llu, "
            "sweep responses %s\n",
            percentile(warm_latencies, 0.50),
            static_cast<unsigned long long>(warm_hits),
            warm_identical ? "BITWISE-IDENTICAL" : "DIVERGED");

        fs::remove_all(dir);
        return all_ok && warm_identical;
      });
}
