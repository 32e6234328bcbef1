// Workload `query_mix`: one op is one query round trip to an in-process
// design-query daemon (serve::Server on a Unix socket, 2 workers) over a
// fresh solve cache. A unit is one round: a cold daemon, then two
// closed-loop clients draining one seeded list of 1200 queries. 70 % of
// the queries are coarse-mesh TCAD sweeps drawn Zipf(s=1) over 36 keys,
// so a round mixes first asks (solves, warm starts, cache publishes) with
// repeats (bitwise replays, in-flight coalescing); 30 % are design and
// figure queries drawn uniformly, answered from the daemon's study.
// Against `tcad_xval` this exercises the same tcad layer through cache
// and serve; a cache or serve change shows here and nowhere else.
//
// The cache is in memory. The study build alone publishes 112 records,
// and on disk their file writes made set-up time follow the host disk:
// 38-112 ms per set-up with fsync, 25-61 ms without, 22-33 ms in memory,
// in alternating runs on one 4-vCPU host.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cache/solve_cache.h"
#include "exec/rng.h"
#include "obs/names.h"
#include "serve/client.h"
#include "serve/dispatcher.h"
#include "serve/query.h"
#include "serve/server.h"

namespace bench {

namespace {

using namespace subscale;

constexpr std::size_t kClients = 2;
constexpr std::size_t kQueriesPerRound = 1200;
constexpr int kSetupsPerRound = 3;
constexpr double kSweepShare = 0.7;
constexpr double kVd[] = {0.10, 0.25, 0.40};
/// Gate windows (vg_start, points), all ending at 0.45 V. A device's
/// published state sits at the end of its last sweep, which is nearer to
/// 0.25 V than equilibrium is, so a late-window first ask after a
/// full-window one warm-starts from the cache.
constexpr struct {
  double vg_start;
  std::size_t points;
} kWindows[] = {{0.0, 3}, {0.0, 7}, {0.25, 5}};

/// The query space: 36 sweep keys (90/65 nm x strategy x vd x gate
/// window, coarse mesh) followed by 8 design and 10 figure keys. A
/// query's id is its key name, so every response to one key must be
/// byte-identical.
struct QuerySpace {
  std::vector<serve::Query> sweeps;
  std::vector<serve::Query> designs;  // design + figure queries
  std::vector<double> zipf_cdf;       // over sweep ranks
  std::vector<std::size_t> rank_to_sweep;  // seed-permuted hot set
};

QuerySpace make_space(std::uint64_t seed) {
  QuerySpace space;
  const core::Strategy strategies[] = {core::Strategy::kSuperVth,
                                       core::Strategy::kSubVth};
  for (std::size_t node = 0; node < 2; ++node) {
    for (const core::Strategy strategy : strategies) {
      for (const double vd : kVd) {
        for (const auto& window : kWindows) {
          serve::Query q;
          q.kind = serve::QueryKind::kSweep;
          q.id = "sweep-" + std::to_string(space.sweeps.size());
          q.strategy = strategy;
          q.node = node;
          q.vd = vd;
          q.vg_start = window.vg_start;
          q.points = window.points;
          q.coarse_mesh = true;
          space.sweeps.push_back(q);
        }
      }
    }
  }
  for (const core::Strategy strategy : strategies) {
    for (std::size_t node = 0; node < 4; ++node) {
      serve::Query q;
      q.kind = serve::QueryKind::kDesign;
      q.strategy = strategy;
      q.node = node;
      q.id = std::string("design-") + core::strategy_name(strategy) + "-" +
             std::to_string(node);
      space.designs.push_back(q);
    }
    for (const std::string& figure : serve::figure_kinds()) {
      serve::Query q;
      q.kind = serve::QueryKind::kFigure;
      q.strategy = strategy;
      q.figure = figure;
      q.id = std::string("figure-") + core::strategy_name(strategy) + "-" +
             figure;
      space.designs.push_back(q);
    }
  }
  const std::size_t n = space.sweeps.size();
  double total = 0.0;
  for (std::size_t r = 1; r <= n; ++r) total += 1.0 / static_cast<double>(r);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += 1.0 / static_cast<double>(r) / total;
    space.zipf_cdf.push_back(acc);
  }
  space.rank_to_sweep.resize(n);
  for (std::size_t i = 0; i < n; ++i) space.rank_to_sweep[i] = i;
  shuffle(space.rank_to_sweep, seed, 0x5eed);
  return space;
}

/// One round's query list, which both clients drain.
std::vector<const serve::Query*> make_queries(const QuerySpace& space,
                                              std::uint64_t seed,
                                              std::uint64_t round,
                                              std::size_t count) {
  std::uint64_t state = exec::seed_stream(seed, round);
  const auto uniform = [&] {
    state = exec::splitmix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  std::vector<const serve::Query*> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (uniform() < kSweepShare) {
      const double u = uniform();
      std::size_t rank = 0;
      while (rank + 1 < space.zipf_cdf.size() && space.zipf_cdf[rank] < u) {
        ++rank;
      }
      out.push_back(&space.sweeps[space.rank_to_sweep[rank]]);
    } else {
      const auto k = static_cast<std::size_t>(
          uniform() * static_cast<double>(space.designs.size()));
      out.push_back(&space.designs[k]);
    }
  }
  return out;
}

/// Response bytes by query id: sweeps per round (a warm start may move
/// low bits between rounds), design/figure across the whole run.
struct ResponseLog {
  std::mutex mu;
  std::map<std::string, std::string> sweep_bytes;
  std::map<std::string, std::string> design_bytes;
  std::vector<std::string> problems;

  void check(const serve::Query& q, const std::string& bytes) {
    std::lock_guard<std::mutex> lock(mu);
    auto& seen =
        q.kind == serve::QueryKind::kSweep ? sweep_bytes : design_bytes;
    const auto [it, fresh] = seen.emplace(q.id, bytes);
    if (!fresh && it->second != bytes && problems.size() < 8) {
      problems.push_back(q.id + ": responses to one key differ");
    }
  }
};

struct ClientLog {
  std::vector<double> first_ms;   // first ask of a sweep key this round
  std::vector<double> repeat_ms;  // everything answered without a solve
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// A closed loop: send the round's next unclaimed query, wait for the
/// answer, repeat. Sharing one list keeps both connections busy until
/// the round's last query, so a round's length does not hinge on how the
/// seed happened to split the expensive first asks between clients.
void run_client(serve::Client& client,
                const std::vector<const serve::Query*>& queries,
                std::atomic<std::size_t>& next,
                std::vector<std::atomic<bool>>& asked,
                const QuerySpace& space, ResponseLog& responses,
                ClientLog& log) {
  for (std::size_t i; (i = next.fetch_add(1)) < queries.size();) {
    const serve::Query* q = queries[i];
    bool first = false;
    if (q->kind == serve::QueryKind::kSweep) {
      const std::size_t key =
          static_cast<std::size_t>(q - space.sweeps.data());
      first = !asked[key].exchange(true);
    }
    ++log.attempted;
    serve::Result r;
    const auto t0 = Clock::now();
    const bool io_ok = client.roundtrip(*q, r);
    const double ms = ms_since(t0);
    if (!io_ok) {  // the other client drains the rest
      ++log.failed;
      log.error = "client I/O failed: " + client.error();
      return;
    }
    const bool sweep_ok = q->kind != serve::QueryKind::kSweep ||
                          (r.sweep.failed == 0 &&
                           r.sweep.points.size() == q->points);
    if (!r.ok || !sweep_ok) {
      ++log.failed;
      if (log.error.empty()) {
        log.error = q->id + ": " +
                    (r.ok ? "unconverged sweep points" : r.error.code);
      }
    }
    (first ? log.first_ms : log.repeat_ms).push_back(ms);
    responses.check(*q, client.last_response_text());
  }
}

/// One round's daemon, cache and connected clients. Construction is the
/// round's set-up; destruction stops the daemon and drops the cache.
class Daemon {
 public:
  Daemon(const std::string& work_dir, Tracer& tracer) {
    serve::ServerOptions options;
    options.socket_path =
        work_dir + "/qm-" + std::to_string(getpid()) + ".sock";
    options.workers = 2;
    options.dispatcher.run.exec.threads = 2;
    options.dispatcher.run.cache = &cache_;
    server_ = std::make_unique<serve::Server>(options);
    server_->start();
    // The card's study build: both roadmaps, before the first query.
    {
      const Tracer::Scope design = tracer.scope("bench.scaling.design");
      for (const core::Strategy s :
           {core::Strategy::kSuperVth, core::Strategy::kSubVth}) {
        serve::Query q;
        q.kind = serve::QueryKind::kDesign;
        q.strategy = s;
        const serve::Result r = server_->dispatcher().dispatch(q);
        if (!r.ok) {
          throw std::runtime_error("study build failed: " + r.error.message);
        }
      }
    }
    for (serve::Client& c : clients_) {
      if (!c.connect_unix(options.socket_path)) {
        throw std::runtime_error("connect failed: " + c.error());
      }
    }
  }
  serve::Client& client(std::size_t i) { return clients_[i]; }

 private:
  // Destroyed in reverse: connections close, the server drains and
  // stops, then the cache goes.
  cache::SolveCache cache_;
  std::unique_ptr<serve::Server> server_;
  serve::Client clients_[kClients];
};

/// Design/figure bytes must equal a local Dispatcher answering the same
/// query (the daemon and the one-shot CLI share this dispatch path).
void check_against_local(const QuerySpace& space, const ResponseLog& log,
                         Outcome& out) {
  serve::DispatcherOptions options;
  options.run.exec.threads = 2;
  options.run.no_cache = true;
  serve::Dispatcher local(options);
  for (const serve::Query& q : space.designs) {
    const auto it = log.design_bytes.find(q.id);
    if (it == log.design_bytes.end()) continue;
    if (serve::result_to_json(local.dispatch(q)) != it->second) {
      out.fail_check(q.id + ": daemon bytes differ from a local dispatch");
    }
  }
}

}  // namespace

Outcome run_query_mix(const Config& config) {
  Outcome out;
  EndToEnd e2e(HostProbe::Cpus::kEvery);  // workers and clients spread out
  Tracer tracer(config.trace);
  const QuerySpace space = make_space(config.seed);
  const std::size_t round_queries =
      config.smoke ? kQueriesPerRound / 10 : kQueriesPerRound;

  ResponseLog responses;
  std::vector<double> first_ms;
  std::vector<double> repeat_ms;
  std::vector<double> untraced_ms;  // every op of the untraced rounds
  std::size_t traced_ops = 0;
  std::size_t traced_firsts = 0;
  const std::size_t min_units = config.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t unit = 0;
       unit < min_units || ms_since(start) < config.seconds * 1e3; ++unit) {
    const bool traced = tracer.traced_unit(unit);
    e2e.probe.sample();
    const std::vector<const serve::Query*> queries =
        make_queries(space, config.seed, unit, round_queries);
    std::atomic<std::size_t> next{0};
    std::vector<std::atomic<bool>> asked(space.sweeps.size());
    ClientLog logs[kClients];
    responses.sweep_bytes.clear();

    tracer.begin_unit(traced);
    // An untraced round takes set-up kSetupsPerRound times and the last
    // daemon serves it: the five or six rounds of a run alone are too few
    // samples for a stable set-up median. A traced round sets up once, so
    // its per-op counts see one study build.
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setups;
    try {
      for (int k = 0; k < (traced ? 1 : kSetupsPerRound); ++k) {
        daemon.reset();
        const auto setup_t0 = Clock::now();
        const Tracer::Scope s = tracer.scope("bench.serve.setup");
        daemon = std::make_unique<Daemon>(config.work_dir, tracer);
        setups.push_back(ms_since(setup_t0) * 1e-3);
      }
    } catch (const std::exception& e) {
      tracer.end_unit();
      out.fail_check(std::string("daemon set-up failed: ") + e.what());
      out.attempted += round_queries;
      out.failed += round_queries;
      break;
    }
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s = tracer.scope("bench.serve.round");
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          run_client(daemon->client(c), queries, next, asked, space,
                     responses, logs[c]);
        });
      }
      for (std::thread& t : threads) t.join();
    }
    const double round_ms = ms_since(t0);
    daemon.reset();
    tracer.end_unit();

    // Queries left unsent because every connection failed.
    const std::size_t unsent =
        queries.size() - std::min(next.load(), queries.size());
    out.attempted += unsent;
    out.failed += unsent;
    std::size_t round_ops = 0;
    for (const ClientLog& log : logs) {
      out.attempted += log.attempted;
      out.failed += log.failed;
      if (!log.error.empty()) out.fail_check(log.error);
      round_ops += log.first_ms.size() + log.repeat_ms.size();
      if (traced) {
        traced_firsts += log.first_ms.size();
        first_ms.insert(first_ms.end(), log.first_ms.begin(),
                        log.first_ms.end());
        repeat_ms.insert(repeat_ms.end(), log.repeat_ms.begin(),
                         log.repeat_ms.end());
      } else {
        untraced_ms.insert(untraced_ms.end(), log.first_ms.begin(),
                           log.first_ms.end());
        untraced_ms.insert(untraced_ms.end(), log.repeat_ms.begin(),
                           log.repeat_ms.end());
      }
    }
    tracer.note_unit(traced, static_cast<double>(round_ops), round_ms);
    if (traced) {
      traced_ops += round_ops;
    } else {
      e2e.setup_s.insert(e2e.setup_s.end(), setups.begin(), setups.end());
      e2e.add_unit(static_cast<double>(round_ops), round_ms);
    }
  }
  for (const std::string& problem : responses.problems) {
    out.fail_check(problem);
  }
  check_against_local(space, responses, out);

  if (!config.trace) {
    e2e.emit(out);
    return out;
  }
  out.metrics["scaling.design_ms"] =
      median(tracer.samples("bench.scaling.design"));
  out.metrics["serve.first_ms_p50"] = percentile(first_ms, 50.0);
  // The tail needs volume: taken over the untraced rounds (1200 ops
  // each, so at least 12 beyond p99), which tracing does not distort.
  out.metrics["serve.op_ms_p99"] = percentile(untraced_ms, 99.0);
  out.metrics["serve.repeat_ms_p50"] = percentile(repeat_ms, 50.0);
  const obs::MetricsSnapshot snap = tracer.registry().snapshot();
  out.metrics["tcad.gummel.outer_iterations_per_first"] =
      traced_firsts > 0
          ? static_cast<double>(
                snap.counter(obs::names::kGummelOuterIterations)) /
                static_cast<double>(traced_firsts)
          : 0.0;
  tracer.finish(static_cast<double>(traced_ops), config, "query_mix", {}, out);
  return out;
}

}  // namespace bench
