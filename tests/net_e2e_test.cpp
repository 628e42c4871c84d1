// End-to-end tests for the socket front-end (src/net/): a real NetServer
// over loopback TCP and Unix-domain sockets, driven by NetClient.
//
// The load-bearing property is the determinism contract: for a fixed
// (seed, admission order), scores over the wire must be BIT-identical to
// the same submissions made in-process — the transport may fragment,
// coalesce, and reorder completions, but it must never perturb a score.
// The overload tests pin the backpressure discipline: a full RequestQueue
// surfaces as kShed Error frames on a live connection, and only protocol
// garbage costs the connection. The NetE2E suite runs under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hmd/stochastic_hmd.hpp"
#include "net/client.hpp"
#include "nn/network.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"
#include "util/cli.hpp"

namespace shmd::net {
namespace {

using namespace std::chrono_literals;

// NetServerStats is all counters: a member without a kNetServerCounters
// row would never be stored, read or dumped.
static_assert(sizeof(NetServerStats) == kNetServerCounters.size() * sizeof(std::uint64_t),
              "every NetServerStats member is one u64 with one kNetServerCounters row");

constexpr std::size_t kInputs = 8;
const trace::FeatureConfig kFc{trace::FeatureView::kInsnCategory, 2048};

nn::Network make_net() {
  const std::vector<std::size_t> topo{kInputs, 12, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

serve::DetectorEpoch test_epoch(double error_rate) {
  const hmd::StochasticHmd det(make_net(), kFc, error_rate);
  return serve::make_epoch(det);
}

/// One program's windows, in both submission forms: the in-process
/// FeatureSet and the on-the-wire ScoreRequest carry identical doubles.
struct Workload {
  std::vector<trace::FeatureSet> features;
  std::vector<ScoreRequest> requests;
};

Workload make_workload(std::size_t n, std::size_t n_windows = 4) {
  Workload w;
  for (std::size_t i = 0; i < n; ++i) {
    rng::Xoshiro256ss gen(1000 + i);
    std::vector<std::vector<double>> windows(n_windows, std::vector<double>(kInputs));
    for (auto& window : windows) {
      for (double& x : window) x = gen.uniform01();
    }
    ScoreRequest req;
    req.view = static_cast<std::uint8_t>(kFc.view);
    req.period = static_cast<std::uint32_t>(kFc.period);
    req.width = kInputs;
    req.windows = windows;
    w.requests.push_back(std::move(req));
    trace::FeatureSet fs;
    fs.put(kFc, std::move(windows));
    w.features.push_back(std::move(fs));
  }
  return w;
}

/// Reference scores: the same workload submitted in-process, one request
/// at a time, against a fresh service with the given config.
std::vector<std::vector<double>> in_process_scores(const Workload& w,
                                                   const serve::ServeConfig& config) {
  serve::ScoringService service(test_epoch(0.05), config);
  std::vector<std::vector<double>> scores;
  for (const trace::FeatureSet& fs : w.features) {
    serve::ScoreTicket ticket;
    EXPECT_EQ(service.submit(fs, ticket), serve::SubmitStatus::kAccepted);
    ticket.wait();
    EXPECT_EQ(ticket.outcome(), serve::RequestOutcome::kScored);
    scores.push_back(ticket.scores());
  }
  return scores;
}

std::string temp_uds_path(const char* tag) {
  return "/tmp/shmd_e2e_" + std::string(tag) + "_" + std::to_string(::getpid()) + ".sock";
}

// --------------------------------------------------------------- liveness

TEST(NetE2E, PingAndStatsOverTcp) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 2});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  ASSERT_NE(ep.port, 0) << "ephemeral port must be resolved";
  server.start();

  NetClient client;
  client.connect(ep);
  EXPECT_TRUE(client.ping());
  const std::optional<serve::ServiceStatsSnapshot> stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->scored, 0u);
  server.stop();
}

// ------------------------------------------------------------- determinism

TEST(NetE2E, LoopbackScoresBitIdenticalToInProcessOverTcpAndUds) {
  const Workload w = make_workload(24);
  const serve::ServeConfig config{.num_workers = 2};
  const std::vector<std::vector<double>> reference = in_process_scores(w, config);

  const std::string uds = temp_uds_path("det");
  const util::Endpoint endpoints[] = {util::parse_endpoint("127.0.0.1:0"),
                                      util::parse_endpoint("unix:" + uds)};
  for (const util::Endpoint& want : endpoints) {
    // Fresh service per transport: same seed, same epoch, same admission
    // order => the wire must reproduce the reference bit-for-bit.
    serve::ScoringService service(test_epoch(0.05), config);
    NetServer server(service);
    const util::Endpoint ep = server.add_listener(want);
    server.start();
    NetClient client;
    client.connect(ep);
    for (std::size_t i = 0; i < w.requests.size(); ++i) {
      const Reply reply = client.score(w.requests[i]);
      ASSERT_EQ(reply.type, FrameType::kScoreResult) << ep.to_string();
      ASSERT_TRUE(reply.result.has_value());
      EXPECT_EQ(reply.result->outcome,
                static_cast<std::uint8_t>(serve::RequestOutcome::kScored));
      EXPECT_EQ(reply.result->scores, reference[i])
          << "score divergence over " << ep.to_string() << " at request " << i;
    }
    client.close();
    server.stop();
  }
  EXPECT_NE(::access(uds.c_str(), F_OK), 0) << "stop() must unlink the unix socket";
}

TEST(NetE2E, PipelinedSubmissionPreservesAdmissionOrderDeterminism) {
  // Many in-flight requests on one connection: completions may come back
  // out of order (4 workers race), but admission follows wire order, so
  // each request id must still map to its reference scores.
  const Workload w = make_workload(32);
  const serve::ServeConfig config{.num_workers = 4};
  const std::vector<std::vector<double>> reference = in_process_scores(w, config);

  serve::ScoringService service(test_epoch(0.05), config);
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();
  NetClient client;
  client.connect(ep);

  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    index_of[client.send_score(w.requests[i])] = i;
  }
  for (std::size_t got = 0; got < w.requests.size(); ++got) {
    const Reply reply = client.recv_reply();
    ASSERT_EQ(reply.type, FrameType::kScoreResult);
    ASSERT_TRUE(index_of.contains(reply.request_id));
    ASSERT_TRUE(reply.result.has_value());
    EXPECT_EQ(reply.result->scores, reference[index_of[reply.request_id]]);
  }
  server.stop();
}

TEST(NetE2E, PollFallbackServesIdentically) {
  // Same contract through the poll() reactor (force_poll exercises the
  // portable backend on Linux too).
  const Workload w = make_workload(8);
  const serve::ServeConfig config{.num_workers = 2};
  const std::vector<std::vector<double>> reference = in_process_scores(w, config);

  serve::ScoringService service(test_epoch(0.05), config);
  NetServer server(service, NetServerConfig{.force_poll = true});
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("localhost:0"));
  server.start();
  NetClient client;
  client.connect(ep);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Reply reply = client.score(w.requests[i]);
    ASSERT_TRUE(reply.result.has_value());
    EXPECT_EQ(reply.result->scores, reference[i]);
  }
  server.stop();
}

TEST(NetE2E, VerdictRepliesCarryExactlyTheScoreDecisions) {
  // The decision-only channel must answer with precisely the decisions a
  // kScore reply implies (score >= epoch threshold), same verdict, same
  // epoch id — and no scores. Fresh service per channel: same seed, same
  // admission order, so the two channels sample identical fault streams.
  const Workload w = make_workload(12);
  const serve::ServeConfig config{.num_workers = 2};

  std::vector<ScoreResult> scored;
  {
    serve::ScoringService service(test_epoch(0.05), config);
    NetServer server(service);
    const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
    server.start();
    NetClient client;
    client.connect(ep);
    for (const ScoreRequest& req : w.requests) {
      const Reply reply = client.score(req);
      ASSERT_TRUE(reply.result.has_value());
      scored.push_back(*reply.result);
    }
    server.stop();
  }

  serve::ScoringService service(test_epoch(0.05), config);
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();
  NetClient client;
  client.connect(ep);
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const std::uint64_t id = client.send_verdict(w.requests[i]);
    const Reply reply = client.recv_reply();
    ASSERT_EQ(reply.request_id, id);
    ASSERT_EQ(reply.type, FrameType::kVerdictResult);
    ASSERT_TRUE(reply.verdict.has_value());
    const VerdictResult& v = *reply.verdict;
    EXPECT_EQ(v.outcome, scored[i].outcome);
    EXPECT_EQ(v.verdict, scored[i].verdict);
    EXPECT_EQ(v.epoch_id, scored[i].epoch_id);
    ASSERT_EQ(v.decisions.size(), scored[i].scores.size());
    for (std::size_t k = 0; k < v.decisions.size(); ++k) {
      EXPECT_EQ(v.decisions[k], scored[i].scores[k] >= 0.5) << "request " << i;
    }
  }
  server.stop();
  // The decision-only traffic is visible to the defender's telemetry.
  EXPECT_EQ(service.stats().verdict_queries, w.requests.size());
}

TEST(NetE2E, NoRawScoresPolicyRefusesKScoreInProtocol) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service, NetServerConfig{.allow_raw_scores = false});
  const util::Endpoint untrusted =
      server.add_listener(util::parse_endpoint("127.0.0.1:0"), /*trusted=*/false);
  const std::string uds = temp_uds_path("policy");
  const util::Endpoint trusted =
      server.add_listener(util::parse_endpoint("unix:" + uds), /*trusted=*/true);
  server.start();

  const Workload w = make_workload(1);
  NetClient attacker;
  attacker.connect(untrusted);
  // kScore from the untrusted side: refused in-protocol, with the id
  // echoed — and the connection survives (a policy refusal is not abuse).
  const Reply refused = attacker.score(w.requests[0]);
  ASSERT_EQ(refused.type, FrameType::kError);
  ASSERT_TRUE(refused.error.has_value());
  EXPECT_EQ(refused.error->code, ErrorCode::kUnsupported);
  EXPECT_TRUE(attacker.ping()) << "policy refusal must not disconnect";
  // The verdict channel still works on the same connection.
  (void)attacker.send_verdict(w.requests[0]);
  const Reply verdict = attacker.recv_reply();
  EXPECT_EQ(verdict.type, FrameType::kVerdictResult);
  // The request the policy refused never reached the service.
  EXPECT_EQ(service.stats().enqueued, 1u);

  // The trusted (same-host collector) listener keeps raw scores.
  NetClient collector;
  collector.connect(trusted);
  const Reply reply = collector.score(w.requests[0]);
  ASSERT_EQ(reply.type, FrameType::kScoreResult);
  EXPECT_FALSE(reply.result->scores.empty());
  server.stop();
}

TEST(NetE2E, RecvDeadlineGuardsAgainstHalfOpenServer) {
  // A listening socket that never accept()s: connect() succeeds out of
  // the backlog, then the "server" goes silent forever. Without a recv
  // deadline the client would block indefinitely; with one it must throw
  // RecvDeadlineExpired and keep the connection for a retry.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sin.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sin), &len), 0);

  NetClient client;
  client.set_recv_deadline(std::chrono::milliseconds(100));
  client.connect(util::parse_endpoint("127.0.0.1:" + std::to_string(ntohs(sin.sin_port))));
  const Workload w = make_workload(1);
  (void)client.send_verdict(w.requests[0]);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.recv_reply(), RecvDeadlineExpired);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s) << "must time out, not hang";
  EXPECT_TRUE(client.connected()) << "deadline expiry is retryable, not fatal";
  EXPECT_THROW((void)client.recv_reply(), RecvDeadlineExpired) << "retry also bounded";
  ::close(listener);
}

// ----------------------------------------------------------------- overload

TEST(NetE2E, OverloadSurfacesAsShedErrorFramesOnLiveConnection) {
  serve::ScoringService service(test_epoch(0.05),
                                serve::ServeConfig{.num_workers = 1, .queue_capacity = 2});
  service.pause();  // hold the workers: the ring observably fills
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  const Workload w = make_workload(10);
  NetClient client;
  client.connect(ep);
  std::vector<std::uint64_t> ids;
  for (const ScoreRequest& req : w.requests) ids.push_back(client.send_score(req));

  // 2 fit the ring; 8 must come back as in-protocol kShed errors, on the
  // SAME connection — overload never disconnects.
  std::size_t shed = 0;
  std::size_t scored = 0;
  for (std::size_t got = 0; got < w.requests.size(); ++got) {
    if (got == 8) service.resume();  // after the 8 sheds, let the 2 queued score
    const Reply reply = client.recv_reply();
    if (reply.type == FrameType::kError) {
      ASSERT_TRUE(reply.error.has_value());
      EXPECT_EQ(reply.error->code, ErrorCode::kShed);
      ++shed;
    } else {
      ASSERT_EQ(reply.type, FrameType::kScoreResult);
      ++scored;
    }
  }
  EXPECT_EQ(shed, 8u);
  EXPECT_EQ(scored, 2u);
  EXPECT_TRUE(client.ping()) << "the connection must survive shedding";
  EXPECT_EQ(server.stats().shed_responses, 8u);

  const serve::ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.shed, 8u);
  EXPECT_EQ(stats.scored, 2u);
  server.stop();
}

TEST(NetE2E, BackpressurePausesReadsAndStaysBounded) {
  // A slow reader over a Unix socket (fixed, small kernel buffers): the
  // server's write buffer crosses its limit, reads pause, and — because
  // the ring is bounded — total buffering stays bounded instead of
  // absorbing the flood. Everything still completes once the reader
  // drains.
  const std::size_t kRequests = 64;
  const Workload w = make_workload(kRequests, /*n_windows=*/2000);  // ~16 KiB replies
  serve::ScoringService service(test_epoch(0.01), serve::ServeConfig{.num_workers = 2});
  NetServer server(service, NetServerConfig{.write_buffer_limit = 2048});
  const std::string uds = temp_uds_path("bp");
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("unix:" + uds));
  server.start();

  NetClient client;
  client.connect(ep);
  std::atomic<std::size_t> sent{0};
  std::thread sender([&client, &w, &sent] {
    for (const ScoreRequest& req : w.requests) {
      (void)client.send_score(req);
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Let replies pile up unread until the limit engages. Waiting on the
  // condition, not on a fixed sleep, keeps a slow (sanitized) run from
  // draining before enough replies exist to fill the socket buffer.
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while (server.stats().reads_paused == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::size_t replies = 0;
  for (; replies < kRequests; ++replies) {
    const Reply reply = client.recv_reply();
    ASSERT_EQ(reply.type, FrameType::kScoreResult);
    ASSERT_EQ(reply.result->scores.size(), 2000u);
  }
  sender.join();
  EXPECT_EQ(sent.load(), kRequests);
  EXPECT_EQ(replies, kRequests);
  const NetServerStats stats = server.stats();
  EXPECT_GE(stats.reads_paused, 1u) << "the write-buffer limit must engage";
  EXPECT_EQ(stats.scores_submitted, kRequests);
  server.stop();

  const serve::ServiceStatsSnapshot served = service.stats();
  EXPECT_EQ(served.scored, kRequests);
  EXPECT_EQ(served.enqueued, served.scored) << "accounting drift through the transport";
}

// ---------------------------------------------------------- syscall batching

TEST(NetE2E, PipelinedRunCoalescesWritesAndWakeups) {
  // 64 requests in flight on one connection: completions reach the
  // reactor in bursts, so a drain answers several requests with one
  // send() and a burst of completions costs one wake-pipe write. Every
  // request id must still be answered exactly once.
  constexpr std::size_t kRequests = 10000;
  constexpr std::size_t kWindow = 64;
  const Workload w = make_workload(64, /*n_windows=*/1);
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 2});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();
  NetClient client;
  client.connect(ep);
  client.set_recv_deadline(10s);

  std::vector<std::uint8_t> answered(kRequests + 1, 0);  // ids are 1..kRequests
  std::size_t sent = 0;
  const auto send_one = [&] { (void)client.send_score(w.requests[sent++ % w.requests.size()]); };
  while (sent < kWindow) send_one();
  for (std::size_t got = 0; got < kRequests; ++got) {
    const Reply reply = client.recv_reply();
    ASSERT_EQ(reply.type, FrameType::kScoreResult);
    ASSERT_TRUE(reply.result.has_value());
    ASSERT_EQ(reply.result->outcome, static_cast<std::uint8_t>(serve::RequestOutcome::kScored));
    ASSERT_GE(reply.request_id, 1u);
    ASSERT_LE(reply.request_id, kRequests);
    ASSERT_EQ(answered[reply.request_id]++, 0) << "answered twice: " << reply.request_id;
    if (sent < kRequests) send_one();
  }
  const NetServerStats stats = server.stats();
  server.stop();
  EXPECT_EQ(stats.scores_submitted, kRequests);
  EXPECT_EQ(stats.frames_out, kRequests);
  EXPECT_LT(stats.write_calls, stats.frames_out) << "replies must share send() calls";
  EXPECT_LT(stats.wakeups, stats.scores_submitted) << "completions must share wake-ups";
  EXPECT_EQ(service.stats().scored, kRequests);
}

TEST(NetE2E, ClosedLoopNeverLosesAWakeup) {
  // One request at a time, so every completion finds the mailbox empty
  // and must wake the reactor itself. The idle reactor has no timeout, so
  // a lost wake-up would park it for good; the receive deadline turns
  // that into a failure instead of a hang.
  constexpr std::size_t kIterations = 10000;
  const Workload w = make_workload(16, /*n_windows=*/1);
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 2});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();
  NetClient client;
  client.connect(ep);
  client.set_recv_deadline(10s);
  for (std::size_t i = 0; i < kIterations; ++i) {
    Reply reply;
    try {
      reply = client.score(w.requests[i % w.requests.size()]);
    } catch (const RecvDeadlineExpired&) {
      FAIL() << "no reply to request " << i << ": completion wake-up lost";
    }
    ASSERT_EQ(reply.type, FrameType::kScoreResult);
  }
  server.stop();
  EXPECT_EQ(service.stats().scored, kIterations);
}

// ----------------------------------------------------------- protocol abuse

/// Minimal raw TCP client for sending deliberately malformed bytes.
class RawConn {
 public:
  explicit RawConn(const util::Endpoint& ep) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(ep.port);
    ::inet_pton(AF_INET, ep.host.c_str(), &sin.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)), 0);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  void send_bytes(const std::vector<std::uint8_t>& bytes) const {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Read until EOF; returns everything received.
  std::vector<std::uint8_t> drain() const {
    std::vector<std::uint8_t> all;
    std::uint8_t buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      all.insert(all.end(), buf, buf + n);
    }
    return all;
  }

 private:
  int fd_ = -1;
};

TEST(NetE2E, GarbageBytesGetBadFrameErrorThenDisconnect) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  RawConn raw(ep);
  raw.send_bytes({'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P', '/', '1', '.', '1',
                  '\r', '\n', '\r', '\n', 0, 0, 0, 0});
  const std::vector<std::uint8_t> reply = raw.drain();  // ends at server-side close

  FrameDecoder decoder;
  decoder.feed(reply);
  const std::optional<Frame> frame = decoder.next();
  ASSERT_TRUE(frame.has_value()) << "garbage must be answered with an Error frame";
  EXPECT_EQ(frame->type, FrameType::kError);
  const std::optional<ErrorBody> body = decode_error(frame->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, ErrorCode::kBadFrame);
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.stop();
}

TEST(NetE2E, MalformedScorePayloadGetsBadFrameWithEchoedId) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  Frame frame;
  frame.type = FrameType::kScore;
  frame.request_id = 0xABCD;
  frame.payload = {1, 2, 3};  // far too short for a ScoreRequest
  std::vector<std::uint8_t> wire;
  encode_frame(frame, wire);
  RawConn raw(ep);
  raw.send_bytes(wire);
  FrameDecoder decoder;
  decoder.feed(raw.drain());
  const std::optional<Frame> reply = decoder.next();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->request_id, 0xABCDu) << "the offending request id is echoed";
  const std::optional<ErrorBody> body = decode_error(reply->payload);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->code, ErrorCode::kBadFrame);
  server.stop();

  // The service never saw the request.
  EXPECT_EQ(service.stats().enqueued, 0u);
}

// ---------------------------------------------------------------- lifecycle

TEST(NetE2E, StopDrainsInFlightScoresWithoutDroppingAny) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 2});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  const Workload w = make_workload(16);
  NetClient client;
  client.connect(ep);
  for (const ScoreRequest& req : w.requests) (void)client.send_score(req);
  server.stop();  // races the in-flight scores on purpose

  const serve::ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.enqueued, stats.scored + stats.deadline_missed + stats.failed)
      << "stop() must complete every accepted request";
  EXPECT_EQ(stats.failed, 0u);
}

TEST(NetE2E, ThrottledConnectionGetsErrorFrameAndStaysUsable) {
  // Fair-share limiter: a connection that exhausts its token bucket gets
  // in-protocol kThrottled Error frames — never a disconnect — and keeps
  // working within its budget. Near-zero refill makes the test exact: the
  // burst is the whole budget for the test's lifetime.
  const Workload w = make_workload(4);
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service,
                   NetServerConfig{.throttle_rps = 1e-6, .throttle_burst = 2.0});
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  NetClient client;
  client.connect(ep);
  for (int i = 0; i < 2; ++i) {
    const Reply reply = client.score(w.requests[i]);
    ASSERT_EQ(reply.type, FrameType::kScoreResult) << "within budget at " << i;
    ASSERT_TRUE(reply.result.has_value());
    EXPECT_EQ(reply.result->outcome,
              static_cast<std::uint8_t>(serve::RequestOutcome::kScored));
  }
  for (int i = 0; i < 3; ++i) {
    const Reply reply = client.score(w.requests[2]);
    ASSERT_EQ(reply.type, FrameType::kError) << "past budget at " << i;
    ASSERT_TRUE(reply.error.has_value());
    EXPECT_EQ(reply.error->code, ErrorCode::kThrottled);
  }
  // The connection survives the refusals: control frames still flow.
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.connected());

  // A fresh connection brings a fresh bucket — the limit is per
  // connection, not per process.
  NetClient second;
  second.connect(ep);
  const Reply fresh = second.score(w.requests[3]);
  EXPECT_EQ(fresh.type, FrameType::kScoreResult);

  const NetServerStats net_stats = server.stats();
  EXPECT_EQ(net_stats.throttled_responses, 3u);
  EXPECT_EQ(net_stats.throttled_conn_peak, 3u);
  const serve::ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.throttled, 3u);   // surfaced in the service snapshot too
  EXPECT_EQ(stats.enqueued, 3u);    // throttled requests never reached the ring
  EXPECT_EQ(stats.in_flight(), 0u);
  server.stop();
}

TEST(NetE2E, HopelessDeadlineComesBackAsRejectedResultFrame) {
  // Admission control over the wire: a deadline the service cannot meet
  // is a request-level disposition — a result frame with outcome
  // kRejected — not a transport error, and not a silent deadline miss
  // after queueing.
  Workload w = make_workload(2);
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service);
  const util::Endpoint ep = server.add_listener(util::parse_endpoint("127.0.0.1:0"));
  server.start();

  NetClient client;
  client.connect(ep);
  // Warm the wait predictor so reject-on-arrival has a service-time EWMA.
  (void)client.score(w.requests[0]);
  service.pause();  // build a backlog the predictor can see
  const std::uint64_t backlog_id = client.send_score(w.requests[0]);

  w.requests[1].deadline_us = 1;  // hopeless against any backlog
  const Reply reply = client.score(w.requests[1]);
  ASSERT_EQ(reply.type, FrameType::kScoreResult);
  ASSERT_TRUE(reply.result.has_value());
  EXPECT_EQ(reply.result->outcome,
            static_cast<std::uint8_t>(serve::RequestOutcome::kRejected));
  EXPECT_TRUE(reply.result->scores.empty());
  EXPECT_TRUE(client.connected());

  service.resume();
  const Reply drained = client.recv_reply();  // the backlogged request scores
  EXPECT_EQ(drained.request_id, backlog_id);
  EXPECT_EQ(drained.type, FrameType::kScoreResult);
  const serve::ServiceStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.rejected_on_admission, 1u);
  EXPECT_EQ(stats.in_flight(), 0u);
  server.stop();
}

TEST(NetE2E, ServerRequiresAListenerAndClientReportsRefusal) {
  serve::ScoringService service(test_epoch(0.05), serve::ServeConfig{.num_workers = 1});
  NetServer server(service);
  EXPECT_THROW(server.start(), std::runtime_error);

  NetClient client;
  EXPECT_THROW(client.connect(util::parse_endpoint("127.0.0.1:1")), std::runtime_error);
  EXPECT_THROW(client.connect(util::parse_endpoint("unix:/nonexistent/shmd.sock")),
               std::runtime_error);
}

}  // namespace
}  // namespace shmd::net
