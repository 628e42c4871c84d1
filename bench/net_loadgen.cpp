// net_loadgen: load generator for the socket front-end (src/net/).
//
// Measures what the in-process serve_loadgen structurally cannot: the
// cost of the wire. Two client models per transport, both against a real
// NetServer over loopback:
//
//   * closed loop — N connections, each scores one request and waits for
//     its reply before the next. Per-request latency here is the full
//     round trip: encode, kernel, reactor, ring, worker, reply.
//   * pipelined — ONE connection with a fixed window of in-flight
//     requests. Throughput without per-request round-trip stalls; this is
//     how a production collector should drive the daemon.
//
// Default mode is self-hosted: the bench owns the service and serves it
// over an ephemeral TCP port AND a temp Unix socket, phases run against
// both so the report separates TCP-stack cost from protocol cost.
// --connect <endpoint> instead drives an external shmd-served (the CI
// net-smoke job runs this two-process split).
//
// Emits a raw JSON report (stdout or --out); CI reduces it to
// BENCH_net.json with bench/emit_bench_json.py --net.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "hmd/stochastic_hmd.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"
#include "util/cli.hpp"

namespace {

using namespace shmd;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kInputs = 16;

nn::Network make_net() {
  const std::vector<std::size_t> topo{kInputs, 32, 16, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

std::vector<net::ScoreRequest> make_workload(std::size_t n_programs,
                                             std::size_t windows_per_program) {
  rng::Xoshiro256ss gen(7);
  std::vector<net::ScoreRequest> workload(n_programs);
  for (net::ScoreRequest& req : workload) {
    req.view = static_cast<std::uint8_t>(trace::FeatureView::kInsnCategory);
    req.period = 2048;
    req.width = kInputs;
    req.windows.assign(windows_per_program, std::vector<double>(kInputs));
    for (auto& window : req.windows) {
      for (double& x : window) x = gen.uniform01();
    }
  }
  return workload;
}

struct PhaseResult {
  std::string name;
  double duration_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t throttled = 0;  ///< kThrottled error replies (fair-share limiter)
  std::uint64_t rejected = 0;   ///< result frames with outcome kRejected (admission)
  std::uint64_t errors = 0;     ///< any other error reply (should stay 0)
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double quantile_us(std::vector<double>& lat_us, double q) {
  if (lat_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(lat_us.size() - 1));
  std::nth_element(lat_us.begin(), lat_us.begin() + static_cast<std::ptrdiff_t>(idx),
                   lat_us.end());
  return lat_us[idx];
}

void finish(PhaseResult& r, double elapsed_s, std::vector<double>& lat_us) {
  r.duration_s = elapsed_s;
  r.throughput_rps = elapsed_s > 0.0 ? static_cast<double>(r.scored) / elapsed_s : 0.0;
  r.p50_us = quantile_us(lat_us, 0.50);
  r.p99_us = quantile_us(lat_us, 0.99);
}

void count_reply(const net::Reply& reply, PhaseResult& r) {
  if (reply.type == net::FrameType::kScoreResult) {
    if (reply.result &&
        reply.result->outcome == static_cast<std::uint8_t>(serve::RequestOutcome::kRejected)) {
      ++r.rejected;  // admission control said no — still a result frame, not an error
    } else {
      ++r.scored;
    }
  } else if (reply.type == net::FrameType::kError && reply.error &&
             reply.error->code == net::ErrorCode::kShed) {
    ++r.shed;
  } else if (reply.type == net::FrameType::kError && reply.error &&
             reply.error->code == net::ErrorCode::kThrottled) {
    ++r.throttled;  // fair-share limiter; the connection stays open
  } else {
    ++r.errors;
  }
}

/// Closed loop: n_clients connections, one outstanding request each.
PhaseResult run_closed(const util::Endpoint& ep, std::size_t n_clients, double duration_s,
                       const std::vector<net::ScoreRequest>& workload, std::string name) {
  PhaseResult result;
  result.name = std::move(name);
  std::mutex mu;  // folds per-thread tallies; uncontended until the end
  std::vector<double> all_lat_us;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      net::NetClient client;
      client.connect(ep);
      PhaseResult local;
      std::vector<double> lat_us;
      std::size_t i = c;  // stagger which request each connection hammers
      while (Clock::now() < end) {
        const Clock::time_point t0 = Clock::now();
        const net::Reply reply = client.score(workload[i++ % workload.size()]);
        lat_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        ++local.sent;
        count_reply(reply, local);
      }
      const std::scoped_lock lock(mu);
      result.sent += local.sent;
      result.scored += local.scored;
      result.shed += local.shed;
      result.throttled += local.throttled;
      result.rejected += local.rejected;
      result.errors += local.errors;
      all_lat_us.insert(all_lat_us.end(), lat_us.begin(), lat_us.end());
    });
  }
  for (std::thread& t : clients) t.join();
  finish(result, std::chrono::duration<double>(Clock::now() - start).count(), all_lat_us);
  return result;
}

/// Pipelined: one connection, `window` requests in flight at all times.
PhaseResult run_pipelined(const util::Endpoint& ep, std::size_t window, double duration_s,
                          const std::vector<net::ScoreRequest>& workload,
                          std::string name) {
  PhaseResult result;
  result.name = std::move(name);
  net::NetClient client;
  client.connect(ep);
  std::vector<double> lat_us;
  std::map<std::uint64_t, Clock::time_point> sent_at;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  std::size_t i = 0;
  const auto send_one = [&] {
    sent_at[client.send_score(workload[i++ % workload.size()])] = Clock::now();
    ++result.sent;
  };
  for (std::size_t w = 0; w < window; ++w) send_one();
  while (Clock::now() < end) {
    const net::Reply reply = client.recv_reply();
    const auto it = sent_at.find(reply.request_id);
    if (it != sent_at.end()) {
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - it->second).count());
      sent_at.erase(it);
    }
    count_reply(reply, result);
    send_one();  // keep the window full
  }
  while (!sent_at.empty()) {  // drain the tail: every send gets its reply
    const net::Reply reply = client.recv_reply();
    sent_at.erase(reply.request_id);
    count_reply(reply, result);
  }
  finish(result, std::chrono::duration<double>(Clock::now() - start).count(), lat_us);
  return result;
}

void print_phase(std::FILE* out, const PhaseResult& r, bool last) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"duration_s\": %.3f,\n"
               "    \"sent\": %llu,\n"
               "    \"scored\": %llu,\n"
               "    \"shed\": %llu,\n"
               "    \"throttled\": %llu,\n"
               "    \"rejected\": %llu,\n"
               "    \"errors\": %llu,\n"
               "    \"throughput_rps\": %.1f,\n"
               "    \"p50_us\": %.1f,\n"
               "    \"p99_us\": %.1f\n"
               "  }%s\n",
               r.name.c_str(), r.duration_s, static_cast<unsigned long long>(r.sent),
               static_cast<unsigned long long>(r.scored),
               static_cast<unsigned long long>(r.shed),
               static_cast<unsigned long long>(r.throttled),
               static_cast<unsigned long long>(r.rejected),
               static_cast<unsigned long long>(r.errors), r.throughput_rps, r.p50_us,
               r.p99_us, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_flag("connect", "drive an external server at this endpoint instead", "");
  cli.add_flag("workers", "scoring workers, self-hosted mode (0 = all cores)", "0");
  cli.add_flag("queue", "ring capacity, self-hosted mode", "256");
  cli.add_flag("clients", "closed-loop connections (0 skips the closed-loop phases)", "4");
  cli.add_flag("window", "pipelined in-flight requests", "64");
  cli.add_flag("duration-s", "seconds per phase", "2");
  cli.add_flag("windows", "feature windows per request", "16");
  cli.add_flag("epoch-period-ms", "epoch re-roll period, self-hosted (0 = static)", "100");
  cli.add_flag("throttle-rps", "per-connection fair-share limit; >0 switches to the "
                               "sustained-hostile-traffic scenario (self-hosted only)", "0");
  cli.add_flag("out", "write the JSON report here instead of stdout", "");
  if (!cli.parse(argc, argv)) return 0;

  const std::string connect = cli.get("connect");
  const auto n_clients = static_cast<std::size_t>(cli.get_int("clients"));
  const auto window = static_cast<std::size_t>(cli.get_int("window"));
  const double duration_s = cli.get_double("duration-s");
  const auto windows = static_cast<std::size_t>(cli.get_int("windows"));
  const std::chrono::milliseconds epoch_period(cli.get_int("epoch-period-ms"));
  const double throttle_rps = cli.get_double("throttle-rps");
  const bool hostile = throttle_rps > 0.0;
  if (hostile && !connect.empty()) {
    std::fprintf(stderr, "net_loadgen: --throttle-rps requires self-hosted mode\n");
    return 1;
  }
  const std::vector<net::ScoreRequest> workload = make_workload(64, windows);

  // Self-hosted plumbing (unused in --connect mode).
  const trace::FeatureConfig fc{trace::FeatureView::kInsnCategory, 2048};
  const nn::Network network = make_net();
  std::optional<serve::ScoringService> service;
  std::optional<net::NetServer> server;
  std::vector<std::pair<std::string, util::Endpoint>> transports;
  const std::string uds_path =
      "/tmp/shmd_net_loadgen_" + std::to_string(::getpid()) + ".sock";
  if (connect.empty()) {
    serve::ServeConfig config;
    config.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
    config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
    service.emplace(serve::make_epoch(hmd::StochasticHmd(network, fc, 0.10)), config);
    net::NetServerConfig net_config;
    net_config.throttle_rps = throttle_rps;  // 0 disables the limiter
    server.emplace(*service, net_config);
    transports.emplace_back("tcp", server->add_listener(util::parse_endpoint("127.0.0.1:0")));
    transports.emplace_back("uds", server->add_listener(util::parse_endpoint("unix:" + uds_path)));
    server->start();
  } else {
    transports.emplace_back("remote", util::parse_endpoint(connect));
  }

  // Moving-target roller, self-hosted only: the wire numbers should not
  // flinch when the operating point re-rolls underneath them.
  std::atomic<bool> stop_roller{false};
  std::thread roller;
  if (service && epoch_period.count() > 0) {
    roller = std::thread([&] {
      const std::vector<double> schedule = {0.10, 0.05, 0.15};
      std::size_t i = 0;
      while (!stop_roller.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(epoch_period);
        if (stop_roller.load(std::memory_order_relaxed)) break;
        const hmd::StochasticHmd moved(network, fc, schedule[i++ % schedule.size()]);
        service->install_epoch(serve::make_epoch(moved));
      }
    });
  }

  std::vector<PhaseResult> phases;
  if (hostile) {
    // Sustained-hostile-traffic scenario: one flooding pipelined connection
    // races the fair-share limiter while polite closed-loop clients share
    // the same server. The limiter should absorb the flood as kThrottled
    // replies (never a disconnect) and leave the polite clients' goodput
    // intact — the flooder's in-window frames beyond its budget bounce
    // cheaply before payload decode.
    const auto& [tag, ep] = transports.front();
    std::fprintf(stderr,
                 "%s hostile: 1 flooder (window %zu) vs %zu polite clients x %.1fs, "
                 "%.0f rps/conn budget...\n",
                 tag.c_str(), window, n_clients, duration_s, throttle_rps);
    PhaseResult flood;
    std::thread flooder([&] {
      flood = run_pipelined(ep, window, duration_s, workload, "hostile_flood");
    });
    PhaseResult polite = run_closed(ep, n_clients, duration_s, workload, "hostile_polite");
    flooder.join();
    phases.push_back(std::move(flood));
    phases.push_back(std::move(polite));
  } else {
    for (const auto& [tag, ep] : transports) {
      if (n_clients > 0) {
        std::fprintf(stderr, "%s closed loop: %zu connections x %.1fs against %s...\n",
                     tag.c_str(), n_clients, duration_s, ep.to_string().c_str());
        phases.push_back(run_closed(ep, n_clients, duration_s, workload, tag + "_closed"));
      }
      std::fprintf(stderr, "%s pipelined: window %zu x %.1fs...\n", tag.c_str(), window,
                   duration_s);
      phases.push_back(run_pipelined(ep, window, duration_s, workload, tag + "_pipelined"));
    }
  }

  if (roller.joinable()) {
    stop_roller.store(true, std::memory_order_relaxed);
    roller.join();
  }

  // Accounting: every frame sent came back as exactly one reply (the
  // phase loops guarantee it structurally — make the claim checkable),
  // and nothing in the stack failed or leaked in flight.
  bool accounting_ok = true;
  for (const PhaseResult& r : phases) {
    if (r.sent != r.scored + r.shed + r.throttled + r.rejected + r.errors ||
        r.errors != 0) {
      accounting_ok = false;
    }
  }
  std::uint64_t server_failed = 0;
  std::uint64_t server_in_flight = 0;
  std::uint64_t epoch_swaps = 0;
  std::uint64_t server_throttled = 0;
  // Reactor syscall batching: send() calls per reply frame (< 1 once
  // replies share writes) — self-hosted only, printed as null otherwise.
  std::string write_calls_per_frame = "null";
  if (server) {
    server->stop();
    const net::NetServerStats net_stats = server->stats();
    server_throttled = net_stats.throttled_responses;
    if (net_stats.frames_out > 0) {
      write_calls_per_frame = std::to_string(static_cast<double>(net_stats.write_calls) /
                                             static_cast<double>(net_stats.frames_out));
    }
    service->close();
    const serve::ServiceStatsSnapshot stats = service->stats();
    server_failed = stats.failed;
    server_in_flight = stats.in_flight();
    epoch_swaps = stats.epoch_swaps;
    if (stats.failed != 0 || stats.in_flight() != 0) accounting_ok = false;
  }

  const std::string out_path = cli.get("out");
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("net_loadgen: cannot open " + out_path);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\n"
               "    \"mode\": \"%s\",\n"
               "    \"clients\": %zu,\n"
               "    \"window\": %zu,\n"
               "    \"windows_per_request\": %zu,\n"
               "    \"epoch_period_ms\": %lld,\n"
               "    \"throttle_rps\": %.0f\n"
               "  },\n",
               connect.empty() ? "self_hosted" : "connect", n_clients, window, windows,
               static_cast<long long>(epoch_period.count()), throttle_rps);
  for (const PhaseResult& r : phases) print_phase(out, r, /*last=*/false);
  std::fprintf(out,
               "  \"totals\": {\n"
               "    \"accounting_ok\": %s,\n"
               "    \"server_failed\": %llu,\n"
               "    \"server_in_flight\": %llu,\n"
               "    \"server_throttled\": %llu,\n"
               "    \"write_calls_per_frame\": %s,\n"
               "    \"epoch_swaps\": %llu\n"
               "  }\n}\n",
               accounting_ok ? "true" : "false",
               static_cast<unsigned long long>(server_failed),
               static_cast<unsigned long long>(server_in_flight),
               static_cast<unsigned long long>(server_throttled),
               write_calls_per_frame.c_str(), static_cast<unsigned long long>(epoch_swaps));
  if (out != stdout) std::fclose(out);
  return accounting_ok ? 0 : 1;
}
