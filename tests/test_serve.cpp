// Tests for the design-query service (src/serve): wire schema
// round-trips, frame codec, admission control, the Dispatcher's
// error-mapping and coalescing contracts, and socket end-to-end runs
// against an in-process Server (Unix and TCP transports).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cache/serve_keys.h"
#include "cache/solve_cache.h"
#include "obs/names.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/dispatcher.h"
#include "serve/protocol.h"
#include "serve/query.h"
#include "serve/server.h"

namespace fs = std::filesystem;
namespace sv = subscale::serve;
using subscale::cache::query_key;
using subscale::core::Strategy;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int seq = 0;
    path = fs::temp_directory_path() /
           ("subscale-test-serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(seq++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

sv::Query design_query(std::size_t node = 0,
                       Strategy strategy = Strategy::kSuperVth) {
  sv::Query q;
  q.kind = sv::QueryKind::kDesign;
  q.node = node;
  q.strategy = strategy;
  return q;
}

}  // namespace

// ---------------------------------------------------------------- query

TEST(ServeQuery, QueryJsonRoundTripPreservesEveryField) {
  sv::Query q;
  q.kind = sv::QueryKind::kSweep;
  q.id = "req-42";
  q.card = "paper_bulk_hot350";
  q.strategy = Strategy::kSubVth;
  q.node = 2;
  q.vd = 0.05;
  q.vg_start = 0.1;
  q.vg_stop = 0.4;
  q.points = 7;
  q.coarse_mesh = true;

  sv::Query back;
  sv::Error error;
  ASSERT_TRUE(sv::parse_query(sv::query_to_json(q), back, error))
      << error.message;
  EXPECT_EQ(back.kind, sv::QueryKind::kSweep);
  EXPECT_EQ(back.id, "req-42");
  EXPECT_EQ(back.card, "paper_bulk_hot350");
  EXPECT_EQ(back.strategy, Strategy::kSubVth);
  EXPECT_EQ(back.node, 2u);
  EXPECT_DOUBLE_EQ(back.vd, 0.05);
  EXPECT_DOUBLE_EQ(back.vg_start, 0.1);
  EXPECT_DOUBLE_EQ(back.vg_stop, 0.4);
  EXPECT_EQ(back.points, 7u);
  EXPECT_TRUE(back.coarse_mesh);
  // Round-trip is canonical: render(parse(render(q))) == render(q).
  EXPECT_EQ(sv::query_to_json(back), sv::query_to_json(q));
}

TEST(ServeQuery, ParseQueryRejectsMalformedInput) {
  sv::Query q;
  sv::Error error;
  EXPECT_FALSE(sv::parse_query("not json at all", q, error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);

  EXPECT_FALSE(sv::parse_query(
      R"({"proto": "subscale.query.v999", "kind": "design"})", q, error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);
  EXPECT_NE(error.message.find("proto"), std::string::npos);

  EXPECT_FALSE(sv::parse_query(
      R"({"proto": "subscale.query.v1", "kind": "frobnicate"})", q, error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);

  // The withdrawn server_info kind is unknown like any other.
  EXPECT_FALSE(sv::parse_query(
      R"({"proto": "subscale.query.v1", "kind": "server_info"})", q, error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);
  EXPECT_EQ(error.message, "unknown query kind");

  EXPECT_FALSE(sv::parse_query(
      R"({"proto": "subscale.query.v1", "kind": "figure",
          "figure": "bogus"})",
      q, error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);

  EXPECT_FALSE(sv::parse_query(
      R"({"proto": "subscale.query.v1", "kind": "sweep", "points": 1})", q,
      error));
  EXPECT_EQ(error.code, sv::codes::kBadRequest);
}

TEST(ServeQuery, ResultJsonRoundTrip) {
  sv::Result r;
  r.id = "x";
  r.kind = sv::QueryKind::kDesign;
  r.ok = true;
  r.card = "paper_bulk_lstp";
  r.strategy = "subvth";
  r.node = 1;
  r.design.node_name = "65nm";
  r.design.lpoly_nm = 70.5;
  r.design.subvth = true;
  r.design.lpoly_opt_nm = 70.5;

  sv::Result back;
  std::string error;
  ASSERT_TRUE(sv::parse_result(sv::result_to_json(r), back, &error)) << error;
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.id, "x");
  EXPECT_EQ(back.kind, sv::QueryKind::kDesign);
  EXPECT_EQ(back.design.node_name, "65nm");
  EXPECT_DOUBLE_EQ(back.design.lpoly_opt_nm, 70.5);

  const sv::Result err = sv::error_result(design_query(), sv::codes::kBadCard,
                                          "nope", "the detail");
  ASSERT_TRUE(sv::parse_result(sv::result_to_json(err), back, &error));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error.code, sv::codes::kBadCard);
  EXPECT_EQ(back.error.message, "nope");
  EXPECT_EQ(back.error.detail, "the detail");
}

TEST(ServeQuery, ContentKeyIgnoresIdAndSeesEveryProblemField) {
  sv::Query a = design_query();
  sv::Query b = a;
  b.id = "different-correlation-tag";
  EXPECT_EQ(query_key(a), query_key(b));  // id never changes the problem

  b = a;
  b.node = 1;
  EXPECT_NE(query_key(a), query_key(b));
  b = a;
  b.strategy = Strategy::kSubVth;
  EXPECT_NE(query_key(a), query_key(b));
  b = a;
  b.card = "paper_bulk_hot350";
  EXPECT_NE(query_key(a), query_key(b));
  b = a;
  b.vd = 0.1;
  EXPECT_NE(query_key(a), query_key(b));
  b = a;
  b.coarse_mesh = true;
  EXPECT_NE(query_key(a), query_key(b));
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocol, HeaderCodecRoundTrips) {
  unsigned char header[sv::kFrameHeaderBytes];
  for (std::uint32_t size : {0u, 1u, 255u, 65536u, sv::kMaxFrameBytes}) {
    sv::encode_frame_header(size, header);
    EXPECT_EQ(sv::decode_frame_header(header), size);
  }
  sv::encode_frame_header(0x01020304u, header);
  EXPECT_EQ(header[0], 0x01);  // big-endian on the wire
  EXPECT_EQ(header[3], 0x04);
}

TEST(ServeProtocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = R"({"hello": "world"})";
  std::string error;
  ASSERT_TRUE(sv::write_frame(fds[0], payload, &error)) << error;
  std::string back;
  ASSERT_EQ(sv::read_frame(fds[1], back, &error), sv::ReadStatus::kOk)
      << error;
  EXPECT_EQ(back, payload);

  ::close(fds[0]);  // orderly close -> clean EOF, not an error
  EXPECT_EQ(sv::read_frame(fds[1], back, &error), sv::ReadStatus::kEof);
  ::close(fds[1]);
}

TEST(ServeProtocol, DecoderReassemblesFragmentsAndPipelinedFrames) {
  const std::string a = "first frame";
  const std::string b = "second";
  std::string wire;
  unsigned char header[sv::kFrameHeaderBytes];
  sv::encode_frame_header(static_cast<std::uint32_t>(a.size()), header);
  wire.append(reinterpret_cast<char*>(header), sv::kFrameHeaderBytes);
  wire += a;
  sv::encode_frame_header(static_cast<std::uint32_t>(b.size()), header);
  wire.append(reinterpret_cast<char*>(header), sv::kFrameHeaderBytes);
  wire += b;

  // Feed one byte at a time: frames pop exactly when complete.
  sv::FrameDecoder decoder;
  std::vector<std::string> frames;
  std::string frame;
  for (char c : wire) {
    decoder.feed(&c, 1);
    while (decoder.next(frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ServeProtocol, OversizeFrameLatchesDecoder) {
  unsigned char header[sv::kFrameHeaderBytes];
  sv::encode_frame_header(sv::kMaxFrameBytes + 1, header);
  sv::FrameDecoder decoder;
  decoder.feed(reinterpret_cast<char*>(header), sv::kFrameHeaderBytes);
  std::string frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.oversize());
  // Latched: further bytes never produce frames.
  decoder.feed("xxxx", 4);
  EXPECT_FALSE(decoder.next(frame));
}

// ------------------------------------------------------------ admission

TEST(ServeAdmission, PerClientCapThrottlesFloodingClientOnly) {
  sv::AdmissionOptions opt;
  opt.queue_capacity = 16;
  opt.per_client_inflight = 2;
  sv::AdmissionController ctl(opt);

  EXPECT_EQ(ctl.on_arrival("flood"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.on_arrival("flood"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.on_arrival("flood"), sv::Admission::kThrottled);
  EXPECT_EQ(ctl.on_arrival("flood"), sv::Admission::kThrottled);
  // A different client is untouched by the flooder's cap.
  EXPECT_EQ(ctl.on_arrival("other"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.client_inflight("flood"), 2u);
  EXPECT_EQ(ctl.client_inflight("other"), 1u);
  EXPECT_EQ(ctl.inflight(), 3u);

  ctl.on_complete("flood");
  EXPECT_EQ(ctl.on_arrival("flood"), sv::Admission::kAdmit);  // slot back
}

TEST(ServeAdmission, GlobalCapacitySheds) {
  sv::AdmissionOptions opt;
  opt.queue_capacity = 3;
  opt.per_client_inflight = 8;
  sv::AdmissionController ctl(opt);
  EXPECT_EQ(ctl.on_arrival("a"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.on_arrival("b"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.on_arrival("c"), sv::Admission::kAdmit);
  EXPECT_EQ(ctl.on_arrival("d"), sv::Admission::kOverloaded);
  ctl.on_complete("b");
  EXPECT_EQ(ctl.on_arrival("d"), sv::Admission::kAdmit);
}

TEST(ServeAdmission, OptionsValidate) {
  sv::AdmissionOptions opt;
  opt.queue_capacity = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.per_client_inflight = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

// ----------------------------------------------------------- dispatcher

TEST(ServeDispatcher, DesignQueryReturnsReportRow) {
  sv::Dispatcher dispatcher;
  const sv::Result r = dispatcher.dispatch(design_query(1, Strategy::kSubVth));
  ASSERT_TRUE(r.ok) << r.error.message;
  EXPECT_EQ(r.kind, sv::QueryKind::kDesign);
  EXPECT_EQ(r.strategy, "subvth");
  EXPECT_EQ(r.design.node_name, "65nm");
  EXPECT_TRUE(r.design.subvth);
  EXPECT_GT(r.design.lpoly_opt_nm, 0.0);
  EXPECT_GT(r.design.vth_sat_mv, 0.0);
}

TEST(ServeDispatcher, FigureQueryChartsEveryNode) {
  sv::Dispatcher dispatcher;
  sv::Query q;
  q.kind = sv::QueryKind::kFigure;
  q.figure = "ss";
  q.strategy = Strategy::kSubVth;
  const sv::Result r = dispatcher.dispatch(q);
  ASSERT_TRUE(r.ok) << r.error.message;
  EXPECT_EQ(r.figure.x_label, "node_nm");
  EXPECT_EQ(r.figure.y_label, "ss_mv_dec");
  ASSERT_EQ(r.figure.x.size(), r.figure.y.size());
  EXPECT_GE(r.figure.x.size(), 4u);  // the paper card's four nodes
  for (double y : r.figure.y) EXPECT_GT(y, 0.0);
}

TEST(ServeDispatcher, ErrorsMapToStructuredCodesNotExceptions) {
  sv::Dispatcher dispatcher;

  // Unresolvable card -> bad_card.
  sv::Query q = design_query();
  q.card = "no_such_card_anywhere";
  sv::Result r = dispatcher.dispatch(q);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, sv::codes::kBadCard);
  EXPECT_FALSE(r.error.detail.empty());

  // Node out of range -> bad_request, names the valid range.
  q = design_query(99);
  r = dispatcher.dispatch(q);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, sv::codes::kBadRequest);

  // TCAD sweep on a nanowire deck -> unsupported (the factory's
  // rejection, classified instead of propagated).
  q = sv::Query{};
  q.kind = sv::QueryKind::kSweep;
  q.card = "nanowire_gaa";
  r = dispatcher.dispatch(q);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, sv::codes::kUnsupported);

  // Invalid sweep shape -> bad_request from Query::validate.
  q = sv::Query{};
  q.kind = sv::QueryKind::kSweep;
  q.vg_stop = q.vg_start;
  r = dispatcher.dispatch(q);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, sv::codes::kBadRequest);

  // The dispatcher is still healthy after every failure.
  r = dispatcher.dispatch(design_query());
  EXPECT_TRUE(r.ok);
}

TEST(ServeDispatcher, IdenticalInflightQueriesSolveExactlyOnce) {
  constexpr int kClients = 6;
  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  std::atomic<int> entered{0};

  sv::DispatcherOptions options;
  options.compute_hook = [&](const sv::Query&) {
    entered.fetch_add(1);
    release_fut.wait();  // hold the leader until every follower arrived
  };
  sv::Dispatcher dispatcher(options);

  sv::Query q = design_query(0, Strategy::kSubVth);
  std::vector<std::thread> threads;
  std::vector<sv::Result> results(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      sv::Query mine = q;
      mine.id = "client-" + std::to_string(i);
      results[i] = dispatcher.dispatch(mine);
    });
  }
  // Wait until the leader is inside the hook, then until every follower
  // is parked on its shared future (coalesced() counts them on entry).
  while (entered.load() == 0) std::this_thread::yield();
  while (dispatcher.coalesced() < kClients - 1) std::this_thread::yield();
  release.set_value();
  for (auto& t : threads) t.join();

  EXPECT_EQ(dispatcher.executed(), 1u);  // exactly one solve
  EXPECT_EQ(dispatcher.coalesced(), static_cast<std::uint64_t>(kClients - 1));
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error.message;
    EXPECT_EQ(results[i].id, "client-" + std::to_string(i));  // own tag back
    // Same answer for everyone: identical bytes once the echoed id is
    // normalized away.
    sv::Result normalized = results[i];
    normalized.id.clear();
    sv::Result first = results[0];
    first.id.clear();
    EXPECT_EQ(sv::result_to_json(normalized), sv::result_to_json(first));
  }
}

TEST(ServeDispatcher, DistinctQueriesDoNotCoalesce) {
  sv::Dispatcher dispatcher;
  dispatcher.dispatch(design_query(0));
  dispatcher.dispatch(design_query(1));
  dispatcher.dispatch(design_query(0, Strategy::kSubVth));
  EXPECT_EQ(dispatcher.executed(), 3u);
  EXPECT_EQ(dispatcher.coalesced(), 0u);
}

// --------------------------------------------------------------- server

namespace {

sv::ServerOptions unix_server_options(const std::string& socket_path) {
  sv::ServerOptions options;
  options.socket_path = socket_path;
  options.workers = 2;
  return options;
}

}  // namespace

TEST(ServeServer, UnixSocketEndToEnd) {
  TempDir dir;
  sv::Server server(unix_server_options(dir.str() + "/sock"));
  server.start();

  sv::Client client;
  ASSERT_TRUE(client.connect_unix(server.socket_path())) << client.error();
  sv::Result r;
  ASSERT_TRUE(client.roundtrip(design_query(1), r)) << client.error();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.design.node_name, "65nm");

  // The response bytes equal the transport-free dispatch rendering: the
  // daemon adds nothing and loses nothing.
  sv::Dispatcher local;
  EXPECT_EQ(client.last_response_text(),
            sv::result_to_json(local.dispatch(design_query(1))));
  server.stop();
}

TEST(ServeServer, TcpLoopbackEndToEnd) {
  sv::ServerOptions options;
  options.port = 0;  // ephemeral
  sv::Server server(options);
  server.start();
  ASSERT_GT(server.port(), 0);

  sv::Client client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()))
      << client.error();
  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  sv::Result r;
  ASSERT_TRUE(client.roundtrip(q, r)) << client.error();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.kind, sv::QueryKind::kMetrics);
  EXPECT_TRUE(r.metrics.has_admission);
  server.stop();
}

TEST(ServeServer, MalformedFrameGetsErrorResponseAndDaemonSurvives) {
  TempDir dir;
  sv::Server server(unix_server_options(dir.str() + "/sock"));
  server.start();

  sv::Client client;
  ASSERT_TRUE(client.connect_unix(server.socket_path()));
  sv::Result r;
  {
    // A well-framed but unparseable payload -> structured bad_request.
    // Client::send_query only sends valid queries, so frame by hand on
    // a raw socket.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  server.socket_path().c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(sv::write_frame(fd, "this is not json"));
    std::string payload;
    ASSERT_EQ(sv::read_frame(fd, payload), sv::ReadStatus::kOk);
    sv::Result bad;
    std::string parse_error;
    ASSERT_TRUE(sv::parse_result(payload, bad, &parse_error)) << parse_error;
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error.code, sv::codes::kBadRequest);
    ::close(fd);
  }
  // The daemon is still serving real queries afterwards.
  ASSERT_TRUE(client.roundtrip(design_query(), r)) << client.error();
  EXPECT_TRUE(r.ok);
  server.stop();
}

TEST(ServeServer, FloodingClientIsThrottledWhileSecondClientIsServed) {
  TempDir dir;
  sv::ServerOptions options = unix_server_options(dir.str() + "/sock");
  options.workers = 1;
  options.admission.per_client_inflight = 2;
  options.admission.queue_capacity = 16;

  // Hold every admitted solve until the rejection pattern is collected,
  // so the flooder's slots stay occupied deterministically.
  std::promise<void> release;
  std::shared_future<void> release_fut = release.get_future().share();
  options.dispatcher.compute_hook = [release_fut](const sv::Query&) {
    release_fut.wait();
  };

  sv::Server server(options);
  server.start();

  sv::Client flood;
  ASSERT_TRUE(flood.connect_unix(server.socket_path()));
  // Pipeline 6 DISTINCT queries (distinct nodes/strategies so none
  // coalesce): 2 admitted (cap), 4 throttled immediately.
  for (int i = 0; i < 6; ++i) {
    sv::Query q = design_query(static_cast<std::size_t>(i % 3),
                               i < 3 ? Strategy::kSuperVth
                                     : Strategy::kSubVth);
    q.id = "flood-" + std::to_string(i);
    ASSERT_TRUE(flood.send_query(q)) << flood.error();
  }
  int throttled = 0;
  std::vector<sv::Result> immediate(4);
  for (int i = 0; i < 4; ++i) {
    // The four rejections come back first (the two admitted are held).
    ASSERT_TRUE(flood.recv_result(immediate[i])) << flood.error();
    EXPECT_FALSE(immediate[i].ok);
    EXPECT_EQ(immediate[i].error.code, sv::codes::kThrottled);
    ++throttled;
  }
  EXPECT_EQ(throttled, 4);

  // A second client lands in the queue untouched by the flooder.
  sv::Client second;
  ASSERT_TRUE(second.connect_unix(server.socket_path()));
  sv::Query q = design_query(3);
  q.id = "second";
  ASSERT_TRUE(second.send_query(q));

  release.set_value();  // let the held solves drain
  sv::Result r;
  ASSERT_TRUE(second.recv_result(r)) << second.error();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.id, "second");
  // And the flooder's two admitted queries complete too.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(flood.recv_result(r)) << flood.error();
    EXPECT_TRUE(r.ok);
  }
  server.stop();
}

TEST(ServeServer, RestartOnWarmCacheRepliesBitwiseIdentical) {
  TempDir dir;
  const std::string cache_dir = dir.str() + "/cache";
  const auto make_options = [&](const std::string& sock) {
    sv::ServerOptions options = unix_server_options(dir.str() + "/" + sock);
    return options;
  };

  sv::Query q;
  q.kind = sv::QueryKind::kSweep;
  q.node = 0;
  q.points = 3;
  q.coarse_mesh = true;

  std::string cold_bytes;
  {
    subscale::cache::SolveCache cache(
        [&] {
          subscale::cache::CacheOptions c;
          c.dir = cache_dir;
          return c;
        }());
    sv::ServerOptions options = make_options("sock1");
    options.dispatcher.run.cache = &cache;
    sv::Server server(options);
    server.start();
    sv::Client client;
    ASSERT_TRUE(client.connect_unix(server.socket_path()));
    sv::Result r;
    ASSERT_TRUE(client.roundtrip(q, r)) << client.error();
    ASSERT_TRUE(r.ok) << r.error.message;
    cold_bytes = client.last_response_text();
    server.stop();
  }
  // A fresh server on the same cache dir answers from the persistent
  // cache -- byte-identical to the cold solve.
  {
    subscale::cache::SolveCache cache(
        [&] {
          subscale::cache::CacheOptions c;
          c.dir = cache_dir;
          return c;
        }());
    sv::ServerOptions options = make_options("sock2");
    options.dispatcher.run.cache = &cache;
    sv::Server server(options);
    server.start();
    sv::Client client;
    ASSERT_TRUE(client.connect_unix(server.socket_path()));
    sv::Result r;
    ASSERT_TRUE(client.roundtrip(q, r)) << client.error();
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(client.last_response_text(), cold_bytes);
    EXPECT_GT(cache.stats().hits, 0u);
    server.stop();
  }
}

// ---- metrics query (the live telemetry export) ----------------------------

TEST(ServeMetrics, ByteIdenticalFromDaemonSocketAndLocalDispatcher) {
  TempDir dir;
  subscale::obs::MetricsRegistry registry;
  subscale::obs::names::preregister_standard(registry);

  sv::ServerOptions options = unix_server_options(dir.str() + "/sock");
  options.dispatcher.run.metrics = &registry;
  sv::Server server(options);
  server.start();

  sv::Client client;
  ASSERT_TRUE(client.connect_unix(server.socket_path())) << client.error();

  // One real query first so the counters/histograms are non-trivial —
  // byte-identity over all-zeros would prove much less.
  sv::Result warm;
  ASSERT_TRUE(client.roundtrip(design_query(0), warm)) << client.error();
  ASSERT_TRUE(warm.ok) << warm.error.message;

  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  q.id = "probe";
  sv::Result remote;
  ASSERT_TRUE(client.roundtrip(q, remote)) << client.error();
  ASSERT_TRUE(remote.ok) << remote.error.message;
  EXPECT_TRUE(remote.metrics.enabled);
  EXPECT_TRUE(remote.metrics.has_admission);

  // A local Dispatcher sharing the registry and the daemon's admission
  // controller must render the exact same bytes: the payload is
  // clock-free and gathering it perturbs nothing.
  sv::DispatcherOptions local_options;
  local_options.run.metrics = &registry;
  local_options.admission = &server.admission();
  sv::Dispatcher local(local_options);
  EXPECT_EQ(client.last_response_text(),
            sv::result_to_json(local.dispatch(q)));
  server.stop();
}

TEST(ServeMetrics, ProbeOnlyConnectionsLeaveTheSnapshotUntouched) {
  TempDir dir;
  subscale::obs::MetricsRegistry registry;
  subscale::obs::names::preregister_standard(registry);

  sv::ServerOptions options = unix_server_options(dir.str() + "/sock");
  options.dispatcher.run.metrics = &registry;
  sv::Server server(options);
  server.start();

  sv::Client worker;
  ASSERT_TRUE(worker.connect_unix(server.socket_path())) << worker.error();
  sv::Result warm;
  ASSERT_TRUE(worker.roundtrip(design_query(0), warm)) << worker.error();
  ASSERT_TRUE(warm.ok) << warm.error.message;

  // The one-shot CLI opens a fresh connection per probe. Two such
  // probes must render byte-identical documents: serve.clients counts
  // connections that issued a *counted* request, not raw accepts, so a
  // probe-only connection never shows up in its own snapshot.
  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  std::string first;
  for (std::string* out : {&first, static_cast<std::string*>(nullptr)}) {
    sv::Client probe;
    ASSERT_TRUE(probe.connect_unix(server.socket_path())) << probe.error();
    sv::Result result;
    ASSERT_TRUE(probe.roundtrip(q, result)) << probe.error();
    ASSERT_TRUE(result.ok) << result.error.message;
    if (out != nullptr) {
      *out = probe.last_response_text();
    } else {
      EXPECT_EQ(first, probe.last_response_text());
      bool found = false;
      for (const auto& [key, value] : result.metrics.snapshot.counters) {
        if (key == "serve.clients") {
          EXPECT_EQ(value, 1u);  // only the worker connection counted
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
  server.stop();
}

TEST(ServeMetrics, QueryDoesNotPerturbWhatItReports) {
  subscale::obs::MetricsRegistry registry;
  subscale::obs::names::preregister_standard(registry);
  sv::DispatcherOptions options;
  options.run.metrics = &registry;
  sv::Dispatcher dispatcher(options);
  // A counted query lands in the registry the payload reports.
  ASSERT_TRUE(dispatcher.dispatch(design_query()).ok);

  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  q.id = "same";
  const sv::Result first = dispatcher.dispatch(q);
  EXPECT_EQ(first.metrics.snapshot.counter(
                subscale::obs::names::kServeExecuted),
            1u);
  const std::string second = sv::result_to_json(dispatcher.dispatch(q));
  EXPECT_EQ(sv::result_to_json(first), second);
  // Unlike every other kind, metrics queries do not count as executed —
  // observation, not work.
  EXPECT_EQ(dispatcher.executed(), 1u);
  EXPECT_EQ(registry.snapshot().counter(
                subscale::obs::names::kServeExecuted),
            1u);
}

TEST(ServeMetrics, RenderedBytesMatchTheParent) {
  // A registry without the standard schema: one counter, one gauge and
  // one histogram on a two-bound layout with a tally in every bucket,
  // the overflow bucket included. The interpolated p90 lands inside a
  // finite bucket and the gauge needs all 17 digits, so the literals
  // below pin the number formatting as well as the layout. Both
  // documents were captured before the payload held the registry
  // snapshot itself; the same state must render the same bytes.
  static constexpr double kBounds[] = {1.0, 10.0};
  constexpr subscale::obs::BucketLayout kLayout{kBounds, 2};
  subscale::obs::MetricsRegistry registry;
  registry.counter("pin.events").add(3);
  registry.gauge("pin.level").set(0.1);
  subscale::obs::Histogram& h = registry.histogram("pin.latency_ms", kLayout);
  for (double v : {0.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.5, 25.0}) {
    h.record(v);
  }
  sv::AdmissionController admission;
  subscale::obs::SpanProfiler profiler(16);  // wired, but no spans

  sv::DispatcherOptions options;
  options.run.metrics = &registry;
  options.run.profiler = &profiler;
  options.admission = &admission;
  sv::Dispatcher dispatcher(options);
  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  q.id = "pin";
  const sv::Result result = dispatcher.dispatch(q);
  ASSERT_TRUE(result.ok);

  EXPECT_EQ(sv::result_to_json(result), R"({
  "proto": "subscale.query.v1",
  "id": "pin",
  "ok": true,
  "kind": "metrics",
  "result": {
    "enabled": true,
    "counters": {
      "pin.events": 3,
      "serve.coalesced": 0,
      "serve.executed": 0
    },
    "gauges": {
      "pin.level": 0.10000000000000001
    },
    "histograms": {
      "pin.latency_ms": {
        "count": 11,
        "sum": 79,
        "le": [
          1,
          10
        ],
        "bucket": [
          1,
          9,
          1
        ],
        "p50": 5.5,
        "p90": 9.9000000000000004,
        "p99": 10
      }
    },
    "admission": {
      "inflight": 0,
      "capacity": 64
    },
    "profiler": {
      "spans": 0,
      "dropped": 0,
      "rollup": []
    }
  }
}
)");
  EXPECT_EQ(sv::metrics_to_prometheus(result.metrics),
            R"(# TYPE subscale_pin_events counter
subscale_pin_events 3
# TYPE subscale_serve_coalesced counter
subscale_serve_coalesced 0
# TYPE subscale_serve_executed counter
subscale_serve_executed 0
# TYPE subscale_pin_level gauge
subscale_pin_level 0.10000000000000001
# TYPE subscale_pin_latency_ms histogram
subscale_pin_latency_ms_bucket{le="1"} 1
subscale_pin_latency_ms_bucket{le="10"} 10
subscale_pin_latency_ms_bucket{le="+Inf"} 11
subscale_pin_latency_ms_sum 79
subscale_pin_latency_ms_count 11
# TYPE subscale_pin_latency_ms_p50 gauge
subscale_pin_latency_ms_p50 5.5
# TYPE subscale_pin_latency_ms_p90 gauge
subscale_pin_latency_ms_p90 9.9000000000000004
# TYPE subscale_pin_latency_ms_p99 gauge
subscale_pin_latency_ms_p99 10
# TYPE subscale_admission_inflight gauge
subscale_admission_inflight 0
# TYPE subscale_admission_capacity gauge
subscale_admission_capacity 64
# TYPE subscale_profiler_spans counter
subscale_profiler_spans 0
# TYPE subscale_profiler_spans_dropped counter
subscale_profiler_spans_dropped 0
)");
}

TEST(ServeMetrics, PayloadJsonRoundTripsAndRendersPrometheus) {
  subscale::obs::MetricsRegistry registry;
  subscale::obs::names::preregister_standard(registry);
  registry.counter(subscale::obs::names::kGummelSolves).add(7);
  registry.gauge(subscale::obs::names::kPoolUtilizationPct).set(42.5);
  auto& h = registry.histogram(subscale::obs::names::kSweepPointMs,
                               subscale::obs::buckets::kLatencyMs);
  h.record(0.3);
  h.record(4.0);
  h.record(50000.0);  // overflow bucket

  sv::DispatcherOptions options;
  options.run.metrics = &registry;
  sv::Dispatcher dispatcher(options);
  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  const sv::Result result = dispatcher.dispatch(q);
  ASSERT_TRUE(result.ok);

  // JSON round-trip is a byte fixed point.
  const std::string rendered = sv::result_to_json(result);
  sv::Result parsed;
  std::string error;
  ASSERT_TRUE(sv::parse_result(rendered, parsed, &error)) << error;
  EXPECT_EQ(sv::result_to_json(parsed), rendered);
  EXPECT_TRUE(parsed.metrics.enabled);
  bool saw_hist = false;
  for (const auto& hist : parsed.metrics.snapshot.histograms) {
    if (hist.name == subscale::obs::names::kSweepPointMs) {
      saw_hist = true;
      EXPECT_EQ(hist.count, 3u);
      EXPECT_GT(hist.percentile(99.0), 0.0);
      ASSERT_FALSE(hist.buckets.empty());
      // The overflow bucket survives the trip with its infinite bound.
      EXPECT_TRUE(std::isinf(hist.buckets.back().first));
      EXPECT_EQ(hist.buckets.back().second, 1u);
    }
  }
  EXPECT_TRUE(saw_hist);

  // The Prometheus text exposition renders from the same payload.
  const std::string prom = sv::metrics_to_prometheus(result.metrics);
  EXPECT_NE(prom.find("# TYPE subscale_tcad_gummel_solves counter"),
            std::string::npos);
  EXPECT_NE(prom.find("subscale_tcad_gummel_solves 7"), std::string::npos);
  EXPECT_NE(prom.find("subscale_exec_pool_utilization_pct 42.5"),
            std::string::npos);
  EXPECT_NE(prom.find("subscale_tcad_sweep_point_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("subscale_tcad_sweep_point_ms_count 3"),
            std::string::npos);
  EXPECT_NE(prom.find("subscale_tcad_sweep_point_ms_p99"),
            std::string::npos);
  // And identically so after the wire round-trip (the CLI's remote
  // path renders from a parsed payload).
  EXPECT_EQ(sv::metrics_to_prometheus(parsed.metrics), prom);
}

TEST(ServeMetrics, SnapshotCarriesProfilerRollupWhenWired) {
  subscale::obs::MetricsRegistry registry;
  subscale::obs::SpanProfiler profiler;
  {
    subscale::obs::ScopedSpan outer(&profiler, "outer");
    subscale::obs::ScopedSpan inner(&profiler, "inner");
  }

  sv::DispatcherOptions options;
  options.run.metrics = &registry;
  options.run.profiler = &profiler;
  sv::Dispatcher dispatcher(options);
  sv::Query q;
  q.kind = sv::QueryKind::kMetrics;
  const sv::Result result = dispatcher.dispatch(q);
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(result.metrics.has_profiler);
  EXPECT_EQ(result.metrics.profiler.spans, 2u);
  ASSERT_FALSE(result.metrics.profiler.rollup.empty());
  bool saw_outer = false;
  for (const auto& row : result.metrics.profiler.rollup) {
    if (row.label == "outer") {
      saw_outer = true;
      EXPECT_EQ(row.count, 1u);
    }
  }
  EXPECT_TRUE(saw_outer);

  // Without a profiler the block is absent, not zero-filled.
  sv::DispatcherOptions bare;
  bare.run.metrics = &registry;
  sv::Dispatcher plain(bare);
  EXPECT_FALSE(plain.dispatch(q).metrics.has_profiler);
}
