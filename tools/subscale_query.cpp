// One-shot design-query CLI: build a subscale.query.v1 request from
// flags (or read one as JSON), answer it, print the canonical response
// document. Two modes, same Dispatcher semantics:
//
//   * local (default): dispatch in-process — no daemon needed. With
//     --cache-dir the solve goes through the persistent cache, so a
//     later daemon answering the same query replays the identical
//     bytes (the serve smoke diffs exactly this).
//   * remote (--socket PATH or --host H --port N): frame the query to a
//     running subscale_serve daemon and print the response frame
//     byte-for-byte.
//
//   subscale_query [--kind design|sweep|figure|metrics]
//                  [--card ID_OR_FILE] [--strategy supervth|subvth]
//                  [--node N] [--vd V] [--vg-start V] [--vg-stop V]
//                  [--points N] [--coarse-mesh] [--figure ss|tau|...]
//                  [--id TAG] [--json FILE|-] [--format json|prometheus]
//                  [--cache-dir DIR]                 (local mode)
//                  [--socket PATH | --host H --port N]  (remote mode)
//
// --format prometheus renders an ok `metrics` response in the
// Prometheus text exposition format instead of JSON (same payload, same
// bytes whether the query went to a daemon or dispatched locally —
// metrics_to_prometheus is a pure function of the payload).
//
// Exit status: 0 = ok response, 1 = error response or I/O failure,
// 2 = usage. The response document goes to stdout either way.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cache/solve_cache.h"
#include "obs/names.h"
#include "serve/client.h"
#include "serve/dispatcher.h"

using namespace subscale;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--kind design|sweep|figure|metrics]\n"
      "          [--card ID_OR_FILE] [--strategy supervth|subvth]\n"
      "          [--node N] [--vd V] [--vg-start V] [--vg-stop V]\n"
      "          [--points N] [--coarse-mesh] [--figure ss|tau|ioff|vth|"
      "lpoly]\n"
      "          [--id TAG] [--json FILE|-] [--format json|prometheus]\n"
      "          [--cache-dir DIR]\n"
      "          [--socket PATH | --host H --port N]\n",
      argv0);
  return 2;
}

bool read_json_source(const std::string& source, std::string& text) {
  if (source == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
    return true;
  }
  std::ifstream in(source, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  text = buf.str();
  return true;
}

/// Print the response document plus a trailing newline (command
/// substitution strips it, so `$(subscale_query ...)` is byte-exact).
int finish(const std::string& response_text, bool ok) {
  std::fwrite(response_text.data(), 1, response_text.size(), stdout);
  std::fputc('\n', stdout);
  return ok ? 0 : 1;
}

/// Format-aware finish: an ok metrics response under --format
/// prometheus prints the text exposition (already newline-terminated);
/// everything else prints the JSON document.
int finish_result(const serve::Result& result,
                  const std::string& response_text,
                  const std::string& format) {
  if (format == "prometheus" && result.ok &&
      result.kind == serve::QueryKind::kMetrics) {
    const std::string text = serve::metrics_to_prometheus(result.metrics);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  return finish(response_text, result.ok);
}

}  // namespace

int main(int argc, char** argv) {
  serve::Query query;
  query.kind = serve::QueryKind::kDesign;
  std::string json_source;
  std::string format = "json";
  std::string cache_dir;
  std::string socket_path;
  std::string host = "127.0.0.1";
  int port = -1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--kind" && (v = next())) {
      if (!serve::parse_query_kind(v, query.kind)) return usage(argv[0]);
    } else if (arg == "--card" && (v = next())) {
      query.card = v;
    } else if (arg == "--strategy" && (v = next())) {
      if (!core::parse_strategy(v, query.strategy)) return usage(argv[0]);
    } else if (arg == "--node" && (v = next())) {
      query.node = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--vd" && (v = next())) {
      query.vd = std::atof(v);
    } else if (arg == "--vg-start" && (v = next())) {
      query.vg_start = std::atof(v);
    } else if (arg == "--vg-stop" && (v = next())) {
      query.vg_stop = std::atof(v);
    } else if (arg == "--points" && (v = next())) {
      query.points = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--coarse-mesh") {
      query.coarse_mesh = true;
    } else if (arg == "--figure" && (v = next())) {
      query.figure = v;
    } else if (arg == "--id" && (v = next())) {
      query.id = v;
    } else if (arg == "--json" && (v = next())) {
      json_source = v;
    } else if (arg == "--format" && (v = next())) {
      format = v;
      if (format != "json" && format != "prometheus") return usage(argv[0]);
    } else if (arg == "--cache-dir" && (v = next())) {
      cache_dir = v;
    } else if (arg == "--socket" && (v = next())) {
      socket_path = v;
    } else if (arg == "--host" && (v = next())) {
      host = v;
    } else if (arg == "--port" && (v = next())) {
      port = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }

  if (!json_source.empty()) {
    std::string text;
    if (!read_json_source(json_source, text)) {
      std::fprintf(stderr, "subscale_query: cannot read %s\n",
                   json_source.c_str());
      return 1;
    }
    serve::Error parse_error;
    if (!serve::parse_query(text, query, parse_error)) {
      // Bad input still produces a well-formed error document, exactly
      // as the daemon would answer it.
      return finish(serve::result_to_json(serve::error_result(
                        query, parse_error.code, parse_error.message,
                        parse_error.detail)),
                    false);
    }
  }

  const bool remote = !socket_path.empty() || port >= 0;
  if (remote) {
    serve::Client client;
    const bool connected = !socket_path.empty()
                               ? client.connect_unix(socket_path)
                               : client.connect_tcp(host, port);
    if (!connected) {
      std::fprintf(stderr, "subscale_query: %s\n", client.error().c_str());
      return 1;
    }
    serve::Result result;
    if (!client.roundtrip(query, result)) {
      std::fprintf(stderr, "subscale_query: %s\n", client.error().c_str());
      return 1;
    }
    return finish_result(result, client.last_response_text(), format);
  }

  obs::MetricsRegistry registry;
  obs::names::preregister_standard(registry);
  serve::DispatcherOptions options;
  options.run.metrics = &registry;
  std::unique_ptr<cache::SolveCache> cache;
  if (!cache_dir.empty()) {
    cache::CacheOptions cache_options;
    cache_options.dir = cache_dir;
    cache_options.metrics = &registry;
    cache = std::make_unique<cache::SolveCache>(cache_options);
    options.run.cache = cache.get();
  }
  try {
    serve::Dispatcher dispatcher(options);
    const serve::Result result = dispatcher.dispatch(query);
    return finish_result(result, serve::result_to_json(result), format);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "subscale_query: %s\n", e.what());
    return 1;
  }
}
