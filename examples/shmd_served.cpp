// shmd-served: the scoring service as an actual network daemon.
//
// Everything the serving stack provides in-process — bounded admission,
// deadline-aware scoring, moving-target epoch reconfiguration — behind
// real sockets: a TCP endpoint for remote monitors and an optional
// Unix-domain socket for same-host collectors. Clients speak the framed
// wire protocol in src/net/frame.hpp (NetClient implements it;
// bench/loadgen --connect drives this daemon through it).
//
// The daemon re-rolls the detector's stochastic operating point every
// --epoch-period-ms, so a connected attacker probes a moving target: the
// boundary they reverse-engineer this epoch is gone the next. Runs until
// --duration-s elapses, or until SIGINT/SIGTERM when --duration-s=0.
//
//   shmd-served --listen 127.0.0.1:7433 --unix /tmp/shmd.sock --er 0.10
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "admit/policy.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "redteam/campaign.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"
#include "util/cli.hpp"

namespace {

using namespace shmd;

// SIGINT/SIGTERM land here; the main loop polls it. A handler may only
// touch lock-free sig_atomic storage, hence no condition variable.
volatile std::sig_atomic_t g_stop = 0;
extern "C" void handle_stop(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_flag("listen", "TCP endpoint, host:port (port 0 = ephemeral)", "127.0.0.1:7433");
  cli.add_flag("unix", "also serve a unix-domain socket at this path", "");
  cli.add_flag("workers", "scoring workers (0 = all cores)", "0");
  cli.add_flag("queue", "admission ring capacity", "256");
  cli.add_flag("er", "stochastic error rate of the detector", "0.10");
  cli.add_flag("seed", "service seed (fault-stream anchor)", "24942");
  cli.add_flag("epoch-period-ms", "moving-target re-roll period (0 = static)", "250");
  cli.add_flag("duration-s", "run time in seconds (0 = until SIGINT/SIGTERM)", "0");
  cli.add_flag("policy", "overload policy: fifo | drop-oldest | lifo", "fifo");
  cli.add_flag("throttle-rps",
               "per-connection fair-share limit, requests/s (0 = unlimited)", "0");
  cli.add_bool("no-raw-scores",
               "refuse kScore from untrusted (TCP) endpoints; they get the "
               "decision-only kVerdict channel (the unix listener stays trusted)");
  if (!cli.parse(argc, argv)) return 0;

  const double er = cli.get_double("er");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::optional<admit::PolicyKind> policy = admit::parse_policy(cli.get("policy"));
  if (!policy.has_value()) {
    std::fprintf(stderr, "shmd-served: unknown --policy '%s' (want fifo | drop-oldest | lifo)\n",
                 cli.get("policy").c_str());
    return 1;
  }
  const std::chrono::milliseconds epoch_period(cli.get_int("epoch-period-ms"));
  const double duration_s = cli.get_double("duration-s");

  // The reference network lives in redteam::served_reference_network so
  // red-team tooling can replicate this daemon's boundary from --seed.
  const trace::FeatureConfig fc = redteam::kServedFeatureConfig;
  const nn::Network net = redteam::served_reference_network(seed);
  const hmd::StochasticHmd hmd(net, fc, er);

  serve::ServeConfig config;
  config.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
  config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  config.seed = seed;
  config.admission_policy = *policy;
  serve::ScoringService service(serve::make_epoch(hmd), config);

  net::NetServerConfig net_config;
  net_config.allow_raw_scores = !cli.get_bool("no-raw-scores");
  net_config.throttle_rps = cli.get_double("throttle-rps");
  net::NetServer server(service, net_config);
  // Trust split under --no-raw-scores: remote (TCP) clients are the §V
  // adversary and get decisions only; the same-host unix socket is the
  // defender's own collector and keeps the raw-score channel.
  const util::Endpoint tcp =
      server.add_listener(util::parse_endpoint(cli.get("listen")), /*trusted=*/false);
  std::optional<util::Endpoint> uds;
  if (!cli.get("unix").empty()) {
    uds = server.add_listener(util::parse_endpoint("unix:" + cli.get("unix")),
                              /*trusted=*/true);
  }
  server.start();
  std::printf("shmd-served: scoring on %s%s%s  (workers=%zu queue=%zu er=%.3f)\n",
              tcp.to_string().c_str(), uds ? " and " : "",
              uds ? uds->to_string().c_str() : "", service.num_workers(),
              config.queue_capacity, er);
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  // Moving-target schedule: alternate operating points around the
  // configured rate, a fresh epoch each period. In-flight requests finish
  // on the epoch they were admitted under (RCU slot), so reconfiguration
  // never tears a score.
  const std::vector<double> schedule = {er, er * 0.5, er * 1.5};
  std::size_t epoch_i = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  auto next_roll = start + epoch_period;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto now = std::chrono::steady_clock::now();
    if (duration_s > 0.0 && now >= deadline) break;
    if (epoch_period.count() > 0 && now >= next_roll) {
      const hmd::StochasticHmd moved(net, fc, schedule[++epoch_i % schedule.size()]);
      service.install_epoch(serve::make_epoch(moved));
      next_roll = now + epoch_period;
    }
  }

  server.stop();
  service.close();
  const auto print_counters = [](const auto& table, const auto& snap) {
    for (const auto& row : table) {
      std::printf(" %.*s=%llu", static_cast<int>(row.name.size()), row.name.data(),
                  static_cast<unsigned long long>(snap.*row.member));
    }
  };
  std::printf("shmd-served: done.");
  print_counters(net::kNetServerCounters, server.stats());
  print_counters(serve::kServiceCounters, service.stats());
  std::printf("\n");
  return 0;
}
