// loadgen: the one load driver for the scoring service and its socket
// front-end. Every client model runs over one transport seam, "submit one
// request, learn its outcome": in process (ScoringService + ScoreTicket)
// or over the wire (NetClient). The driver self-hosts the service on each
// transport in --transport (inproc, tcp, uds) or drives an external
// shmd-served with --connect, and runs per transport:
//
//   * closed — --clients clients, one request in flight each;
//   * pipelined — one client holding --window requests in flight;
//   * open (in process only) — a pacer fires try_submit at --rate whether
//     or not earlier requests completed, so overload becomes visible;
//   * hostile (--throttle-rps > 0, wire transports, instead of closed and
//     pipelined) — one pipelined flooder against the fair-share limiter,
//     next to --clients polite clients paced at half the budget. A
//     self-hosted server takes its limit from the flag; start shmd-served
//     with the same --throttle-rps for a --connect run.
//
// Each phase reports the client's tally next to the server's
// kServiceCounters deltas (ScoringService::stats() in process,
// NetClient::stats() over the wire). The driver exits 1 unless every phase
// reconciles and nothing failed or stayed in flight. It writes a JSON
// report; bench/emit_bench_json.py --load reduces it to a scorecard. The
// phase schema is documented in DESIGN.md §11.
//
//   loadgen --transport=inproc,tcp,uds --duration-s=2
//   loadgen --connect unix:/tmp/shmd.sock
#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "admit/policy.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"
#include "trace/dataset.hpp"
#include "util/cli.hpp"

namespace {

using namespace shmd;
using Clock = serve::ServiceClock;
using Snapshot = serve::ServiceStatsSnapshot;

constexpr std::size_t kInputs = 16;
constexpr trace::FeatureConfig kFeatures{trace::FeatureView::kInsnCategory, 2048};
constexpr std::chrono::milliseconds kRecvDeadline{30000};  ///< dead-daemon guard

nn::Network make_net() {
  const std::vector<std::size_t> topo{kInputs, 32, 16, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

/// The fixed workload, drawn once from a fixed seed and wrapped once per
/// transport.
struct Workload {
  std::vector<trace::FeatureSet> sets;      ///< in-process form
  std::vector<net::ScoreRequest> requests;  ///< wire form
};

Workload make_workload(std::size_t n_requests, std::size_t windows_per_request) {
  rng::Xoshiro256ss gen(7);
  Workload w;
  w.sets.resize(n_requests);
  w.requests.resize(n_requests);
  for (std::size_t r = 0; r < n_requests; ++r) {
    std::vector<std::vector<double>> windows(windows_per_request, std::vector<double>(kInputs));
    for (auto& window : windows) {
      for (double& x : window) x = gen.uniform01();
    }
    net::ScoreRequest& req = w.requests[r];
    req.view = static_cast<std::uint8_t>(kFeatures.view);
    req.period = static_cast<std::uint32_t>(kFeatures.period);
    req.width = kInputs;
    req.windows = windows;
    w.sets[r].put(kFeatures, std::move(windows));
  }
  return w;
}

// ---- the client's tally and the server's books ---------------------------

/// How one request ended, as the client learns it.
enum class Outcome { kScored, kMissed, kRejected, kFailed, kShed, kThrottled, kError };
/// JSON names of the outcome buckets, in Outcome order.
constexpr std::array<std::string_view, 7> kOutcomeNames = {
    "scored", "deadline_missed", "rejected", "failed", "shed", "throttled", "errors"};
using Buckets = std::array<std::uint64_t, kOutcomeNames.size()>;

Outcome outcome_of(serve::RequestOutcome outcome) {
  switch (outcome) {
    case serve::RequestOutcome::kScored: return Outcome::kScored;
    case serve::RequestOutcome::kDeadlineMissed: return Outcome::kMissed;
    case serve::RequestOutcome::kRejected: return Outcome::kRejected;  // admission or eviction
    case serve::RequestOutcome::kFailed: return Outcome::kFailed;
    default: return Outcome::kError;
  }
}

Outcome outcome_of(serve::SubmitStatus status, const serve::ScoreTicket& ticket) {
  switch (status) {
    case serve::SubmitStatus::kAccepted: return outcome_of(ticket.outcome());
    case serve::SubmitStatus::kShed: return Outcome::kShed;
    case serve::SubmitStatus::kRejected: return Outcome::kRejected;
    default: return Outcome::kError;  // kClosed
  }
}

Outcome outcome_of(const net::Reply& reply) {
  if (reply.type == net::FrameType::kScoreResult && reply.result) {
    return outcome_of(static_cast<serve::RequestOutcome>(reply.result->outcome));
  }
  if (reply.type == net::FrameType::kError && reply.error) {
    if (reply.error->code == net::ErrorCode::kShed) return Outcome::kShed;
    if (reply.error->code == net::ErrorCode::kThrottled) return Outcome::kThrottled;
  }
  return Outcome::kError;
}

struct Tally {
  std::uint64_t sent = 0;         ///< requests handed to the server
  std::uint64_t client_shed = 0;  ///< open-loop sends dropped at the client: no free ticket
  Buckets outcomes{};
  std::vector<double> rtt_us;  ///< round trips of the requests the client waited for

  void count(Outcome o) { ++outcomes[static_cast<std::size_t>(o)]; }
  [[nodiscard]] std::uint64_t at(Outcome o) const { return outcomes[static_cast<std::size_t>(o)]; }
  void merge(const Tally& o) {
    sent += o.sent;
    client_shed += o.client_shed;
    for (std::size_t b = 0; b < outcomes.size(); ++b) outcomes[b] += o.outcomes[b];
    rtt_us.insert(rtt_us.end(), o.rtt_us.begin(), o.rtt_us.end());
  }
};

/// What the server booked over a phase, in the client's buckets: arrivals
/// (admitted, or turned away at the door) and their outcomes.
Tally booked(const Snapshot& d) {
  Tally t;
  t.sent = d.enqueued + d.shed + d.throttled + d.rejected_closed + d.rejected_on_admission;
  t.outcomes = {d.scored, d.deadline_missed, d.rejected_on_admission + d.evicted, d.failed,
                d.shed,   d.throttled,       d.rejected_closed};
  return t;
}

/// Counter and latency-histogram deltas between two snapshots.
Snapshot diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d;
  for (const auto& row : serve::kServiceCounters) {
    d.*row.member = after.*row.member - before.*row.member;
  }
  for (const auto hist : {&Snapshot::latency, &Snapshot::missed_wait}) {
    for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
      (d.*hist).counts[b] = (after.*hist).counts[b] - (before.*hist).counts[b];
    }
    (d.*hist).total = (after.*hist).total - (before.*hist).total;
  }
  return d;
}

// ---- the transport seam --------------------------------------------------

/// One client's connection to the server.
class Channel {
 public:
  virtual ~Channel() = default;
  /// Submit workload request `i`, blocking while the server pushes back;
  /// returns the submission's id.
  virtual std::uint64_t send(std::size_t i) = 0;
  /// Block for the outcome of an earlier send.
  virtual std::pair<std::uint64_t, Outcome> recv() = 0;
};

/// In process: a ring of `window` tickets, completed oldest first.
class InProcChannel final : public Channel {
 public:
  InProcChannel(serve::ScoringService& service, const Workload& work, std::size_t window)
      : service_(service), work_(work), tickets_(window), status_(window) {}
  std::uint64_t send(std::size_t i) override {
    const std::size_t slot = sent_ % tickets_.size();
    status_[slot] = service_.submit(work_.sets[i], tickets_[slot]);
    return sent_++;
  }
  std::pair<std::uint64_t, Outcome> recv() override {
    const std::size_t slot = received_ % tickets_.size();
    tickets_[slot].wait();
    return {received_++, outcome_of(status_[slot], tickets_[slot])};
  }

 private:
  serve::ScoringService& service_;
  const Workload& work_;
  std::vector<serve::ScoreTicket> tickets_;
  std::vector<serve::SubmitStatus> status_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

class WireChannel final : public Channel {
 public:
  WireChannel(const util::Endpoint& endpoint, const Workload& work) : work_(work) {
    client.connect(endpoint);
    client.set_recv_deadline(kRecvDeadline);
  }
  std::uint64_t send(std::size_t i) override { return client.send_score(work_.requests[i]); }
  std::pair<std::uint64_t, Outcome> recv() override {
    const net::Reply reply = client.recv_reply();
    return {reply.request_id, outcome_of(reply)};
  }

  net::NetClient client;

 private:
  const Workload& work_;
};

/// A server reached one way: opens client channels and reads its counters.
struct Transport {
  std::string name;
  std::function<std::unique_ptr<Channel>(std::size_t window)> open;
  std::function<Snapshot()> stats;
};

// ---- above the seam: pacer, runners, phase report ------------------------

/// Batched catch-up pacing at a fixed rate. Send k is due at start + k *
/// period and each wait() claims every send already due as one burst, so
/// oversleeping shifts send times but never loses offered load (a per-send
/// sleep_until caps the achieved rate far below target at µs periods).
class Pacer {
 public:
  Pacer(Clock::time_point start, double rate_rps)
      : next_(start), period_(static_cast<std::int64_t>(1e9 / rate_rps)) {}

  /// Wait for the next due send; returns how many sends are due by now,
  /// or 0 once `end` has passed.
  std::uint64_t wait(Clock::time_point end) {
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= end) return 0;
      if (next_ <= now) {
        std::uint64_t due = 0;
        for (; next_ <= now; next_ += period_) ++due;
        return due;
      }
      if (next_ - now > kSleepSlack) std::this_thread::sleep_until(next_ - kSleepSlack);
    }
  }

 private:
  static constexpr std::chrono::microseconds kSleepSlack{150};
  Clock::time_point next_;
  std::chrono::nanoseconds period_;
};

/// One closed-loop client: keeps up to `window` requests in flight and
/// sends the next as each outcome arrives, until `end`, then drains. A
/// paced client sends at most one request per due burst: a client that is
/// waiting on its window has no way to catch up on the sends it missed.
Tally run_client(Channel& channel, std::size_t window, std::optional<Pacer> pacer,
                 std::size_t next, std::size_t n_requests, Clock::time_point end) {
  Tally tally;
  std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
  const auto send_if_due = [&] {
    if (Clock::now() >= end || (pacer && pacer->wait(end) == 0)) return false;
    const Clock::time_point t0 = Clock::now();
    sent_at.emplace(channel.send(next++ % n_requests), t0);
    ++tally.sent;
    return true;
  };
  while (sent_at.size() < window && send_if_due()) {
  }
  while (!sent_at.empty()) {
    const auto [id, outcome] = channel.recv();
    const auto it = sent_at.find(id);
    if (it != sent_at.end()) {
      tally.rtt_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - it->second).count());
      sent_at.erase(it);
    }
    tally.count(outcome);
    send_if_due();
  }
  return tally;
}

/// Clients that run the same way within a phase.
struct Group {
  std::string name;
  std::size_t clients = 1;
  std::size_t window = 1;
  double rate_per_client = 0.0;  ///< 0 = unpaced
};

struct Phase {
  std::string name;
  double duration_s = 0.0;
  Tally client;  ///< summed over the groups
  std::vector<std::pair<std::string, Tally>> groups;  ///< per group, when there are several
  Snapshot server;  ///< counter and histogram deltas over the phase

  [[nodiscard]] bool reconciled() const {
    const Tally server_books = booked(server);
    return client.sent == server_books.sent && client.outcomes == server_books.outcomes;
  }
};

/// Closed-loop phase: every group's clients run concurrently on `transport`.
Phase run_closed(const Transport& transport, const std::string& model,
                 const std::vector<Group>& groups, const Workload& work, double duration_s) {
  Phase phase;
  phase.name = transport.name + "_" + model;
  std::fprintf(stderr, "%s: %.1fs...\n", phase.name.c_str(), duration_s);
  const Snapshot before = transport.stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  std::vector<std::vector<Tally>> tallies(groups.size());
  {
    std::vector<std::jthread> clients;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      tallies[g].resize(groups[g].clients);
      for (std::size_t c = 0; c < groups[g].clients; ++c) {
        clients.emplace_back([&, g, c] {
          const Group& group = groups[g];
          const std::unique_ptr<Channel> channel = transport.open(group.window);
          std::optional<Pacer> pacer;
          if (group.rate_per_client > 0.0) pacer.emplace(start, group.rate_per_client);
          // Stagger which request each client starts from.
          tallies[g][c] = run_client(*channel, group.window, pacer, c, work.sets.size(), end);
        });
      }
    }
  }
  phase.duration_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.server = diff(transport.stats(), before);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Tally group;
    for (const Tally& t : tallies[g]) group.merge(t);
    phase.client.merge(group);
    if (groups.size() > 1) phase.groups.emplace_back(groups[g].name, std::move(group));
  }
  return phase;
}

/// Open-loop phase, in process: the pacer offers `rate` requests/s through
/// try_submit whatever the service does.
Phase run_open(serve::ScoringService& service, const Workload& work, double rate,
               std::chrono::milliseconds deadline, double duration_s) {
  Phase phase;
  phase.name = "inproc_open";
  std::fprintf(stderr, "%s: %.0f req/s for %.1fs...\n", phase.name.c_str(), rate, duration_s);
  Tally& tally = phase.client;
  const Snapshot before = service.stats();
  // A round-robin pool a bit larger than the ring plus what the workers
  // hold almost always has its next ticket free. When it does not, the
  // send is shed at the client: a pacer that blocked would silently turn
  // the open loop into a closed one.
  std::vector<serve::ScoreTicket> pool(service.queue_capacity() + 4 * service.num_workers() + 8);
  std::vector<bool> armed(pool.size(), false);  ///< accepted, outcome not yet counted
  const auto harvest = [&](std::size_t s) {
    if (armed[s]) tally.count(outcome_of(pool[s].outcome()));
    armed[s] = false;
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  Pacer pacer(start, rate);
  std::size_t slot = 0;
  std::size_t next = 0;
  while (const std::uint64_t due = pacer.wait(end)) {
    const auto due_by = deadline.count() > 0
                            ? std::optional<Clock::time_point>(Clock::now() + deadline)
                            : std::nullopt;
    for (std::uint64_t k = 0; k < due; ++k) {  // the whole overdue burst
      const std::size_t s = slot++ % pool.size();
      if (!pool[s].done()) {
        ++tally.client_shed;
        continue;
      }
      harvest(s);
      const serve::SubmitStatus status =
          service.try_submit(work.sets[next++ % work.sets.size()], pool[s], due_by);
      ++tally.sent;
      armed[s] = status == serve::SubmitStatus::kAccepted;
      if (!armed[s]) tally.count(outcome_of(status, pool[s]));
    }
  }
  for (std::size_t s = 0; s < pool.size(); ++s) {
    pool[s].wait();
    harvest(s);
  }
  phase.duration_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.server = diff(service.stats(), before);
  return phase;
}

/// Re-rolls the operating point every `period` until stopped: the driver's
/// stand-in for the thermal governor / re-exploration control plane.
void roll_epochs(const std::stop_token& stop, serve::ScoringService& service,
                 const nn::Network& net, std::chrono::milliseconds period) {
  const std::vector<double> schedule = {0.10, 0.05, 0.15};
  for (std::size_t i = 0; !stop.stop_requested(); ++i) {
    std::this_thread::sleep_for(period);
    const hmd::StochasticHmd moved(net, kFeatures, schedule[i % schedule.size()]);
    service.install_epoch(serve::make_epoch(moved));
  }
}

/// FNV-1a over the bytes of every score double (little-endian hosts), in
/// request order: a stable fingerprint of the full score tensor.
std::uint64_t score_hash(const std::vector<std::vector<double>>& scores) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<double>& request : scores) {
    for (const std::byte b : std::as_bytes(std::span(request))) {
      h = (h ^ std::to_integer<std::uint64_t>(b)) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// Determinism probe: a fresh service with a fixed seed scores a fixed
/// workload in a fixed admission order. Scores are a pure function of
/// (seed, request index), so CI requires the same hash across --batch,
/// --policy, kernel dispatch and build.
std::uint64_t determinism_probe(const nn::Network& net, std::size_t max_batch,
                                admit::PolicyKind policy) {
  serve::ServeConfig config;
  config.num_workers = 2;
  config.queue_capacity = 256;
  config.max_batch = max_batch;
  config.seed = 0xD5EEDULL;
  config.admission_policy = policy;
  serve::ScoringService probe(serve::make_epoch(hmd::StochasticHmd(net, kFeatures, 0.10)),
                              config);
  const Workload work = make_workload(48, 8);
  std::vector<const trace::FeatureSet*> ptrs;
  ptrs.reserve(work.sets.size());
  for (const trace::FeatureSet& fs : work.sets) ptrs.push_back(&fs);
  return score_hash(probe.score_all(ptrs));
}

// ---- the report ----------------------------------------------------------

/// Minimal JSON writer: one member per line, commas and indentation handled.
class Json {
 public:
  explicit Json(std::FILE* out) : out_(out) { std::fputs("{", out_); }
  ~Json() { std::fputs("\n}\n", out_); }
  Json(const Json&) = delete;
  Json& operator=(const Json&) = delete;

  void raw(std::string_view key, const std::string& value) {
    std::fprintf(out_, "%s\n%*s\"%.*s\": %s", first_ ? "" : ",", 2 * depth_, "",
                 static_cast<int>(key.size()), key.data(), value.c_str());
    first_ = false;
  }
  void open(std::string_view key) {
    raw(key, "{");
    ++depth_;
    first_ = true;
  }
  void close() {
    --depth_;
    std::fprintf(out_, "\n%*s}", 2 * depth_, "");
  }
  void u64(std::string_view key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void num(std::string_view key, double v, int digits = 1) {
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), "%.*f", digits, v);
    raw(key, buf.data());
  }
  void str(std::string_view key, const std::string& v) { raw(key, '"' + v + '"'); }
  void counters(const Snapshot& snap) {
    for (const auto& row : serve::kServiceCounters) u64(row.name, snap.*row.member);
  }

 private:
  std::FILE* out_;
  int depth_ = 1;
  bool first_ = true;
};

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

void print_tally(Json& j, const Tally& t, double duration_s) {
  const double per_s = duration_s > 0.0 ? 1.0 / duration_s : 0.0;
  j.u64("sent", t.sent);
  j.u64("client_shed", t.client_shed);
  for (std::size_t b = 0; b < kOutcomeNames.size(); ++b) j.u64(kOutcomeNames[b], t.outcomes[b]);
  j.num("throughput_rps", static_cast<double>(t.at(Outcome::kScored)) * per_s);
  j.num("achieved_rate_rps", static_cast<double>(t.sent + t.client_shed) * per_s);
  if (!t.rtt_us.empty()) {  // only phases in which the client waits for replies
    j.num("rtt_p50_us", quantile(t.rtt_us, 0.50));
    j.num("rtt_p99_us", quantile(t.rtt_us, 0.99));
  }
}

void print_phase(Json& j, const Phase& p) {
  j.open(p.name);
  j.num("duration_s", p.duration_s, 3);
  print_tally(j, p.client, p.duration_s);
  j.num("goodput_rps", p.duration_s > 0.0 ? p.server.goodput() / p.duration_s : 0.0);
  j.num("p50_us", p.server.latency.p50_ns() / 1e3);
  j.num("p99_us", p.server.latency.p99_ns() / 1e3);
  j.num("missed_wait_p50_us", p.server.missed_wait.p50_ns() / 1e3);
  j.num("missed_wait_p99_us", p.server.missed_wait.p99_ns() / 1e3);
  j.raw("reconciled", p.reconciled() ? "true" : "false");
  j.open("server");
  j.counters(p.server);
  j.close();
  for (const auto& [name, tally] : p.groups) {
    j.open(name);
    print_tally(j, tally, p.duration_s);
    j.close();
  }
  j.close();
}

/// Flags: name, default, help. The report's "config" echoes them all.
constexpr std::array<std::array<const char*, 3>, 15> kFlags = {{
    {"transport", "inproc", "comma list of self-hosted transports: inproc, tcp, uds"},
    {"connect", "", "drive an external shmd-served at this endpoint instead"},
    {"workers", "0", "scoring workers, self-hosted (0 = all cores)"},
    {"queue", "256", "ring capacity, self-hosted"},
    {"batch", "16", "max requests a worker drains per queue pop, self-hosted"},
    {"policy", "fifo", "admission policy, self-hosted: fifo | drop-oldest | lifo"},
    {"epoch-period-ms", "100", "epoch re-roll period, self-hosted (0 = static)"},
    {"throttle-rps", "0", "per-connection fair-share budget; >0 runs the hostile scenario"},
    {"clients", "8", "closed-loop clients (0 skips the closed phase)"},
    {"window", "64", "pipelined in-flight requests (0 skips the pipelined phase)"},
    {"rate", "200000", "in-process open-loop rate, requests/s (0 skips the open phase)"},
    {"deadline-ms", "0", "open-loop per-request deadline (0 = none)"},
    {"duration-s", "2", "seconds per phase"},
    {"windows", "16", "feature windows per request"},
    {"out", "", "write the JSON report here instead of stdout"},
}};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  for (const auto& [name, value, help] : kFlags) cli.add_flag(name, help, value);
  if (!cli.parse(argc, argv)) return 0;

  const std::string connect = cli.get("connect");
  std::vector<std::string> names{"remote"};
  if (connect.empty()) {
    names.clear();
    std::istringstream list(cli.get("transport"));
    for (std::string name; std::getline(list, name, ',');) names.push_back(name);
  }
  const auto n_clients = static_cast<std::size_t>(cli.get_int("clients"));
  const auto window = static_cast<std::size_t>(cli.get_int("window"));
  const auto max_batch = static_cast<std::size_t>(cli.get_int("batch"));
  const auto windows = static_cast<std::size_t>(cli.get_int("windows"));
  const double duration_s = cli.get_double("duration-s");
  const double rate = cli.get_double("rate");
  const double throttle_rps = cli.get_double("throttle-rps");
  const std::chrono::milliseconds epoch_period(cli.get_int("epoch-period-ms"));
  const std::chrono::milliseconds deadline(cli.get_int("deadline-ms"));
  const std::optional<admit::PolicyKind> policy = admit::parse_policy(cli.get("policy"));
  const auto bad = [](const char* what) {
    std::fprintf(stderr, "loadgen: %s\n", what);
    return 1;
  };
  if (!policy) return bad("unknown --policy (want fifo | drop-oldest | lifo)");
  for (const std::string& name : names) {
    if (connect.empty() && name != "inproc" && name != "tcp" && name != "uds") {
      return bad("unknown --transport (want a comma list of inproc, tcp, uds)");
    }
  }

  const nn::Network net = make_net();
  const Workload work = make_workload(64, windows);
  const std::uint64_t probe_hash = determinism_probe(net, max_batch, *policy);

  std::optional<serve::ScoringService> service;
  std::optional<net::NetServer> server;
  std::vector<util::Endpoint> endpoints(names.size());
  if (connect.empty()) {
    serve::ServeConfig config;
    config.num_workers = static_cast<std::size_t>(cli.get_int("workers"));
    config.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
    config.max_batch = max_batch;
    config.admission_policy = *policy;
    service.emplace(serve::make_epoch(hmd::StochasticHmd(net, kFeatures, 0.10)), config);
    const std::string uds_path = "/tmp/shmd_loadgen_" + std::to_string(::getpid()) + ".sock";
    for (std::size_t t = 0; t < names.size(); ++t) {
      if (names[t] == "inproc") continue;
      if (!server) server.emplace(*service, net::NetServerConfig{.throttle_rps = throttle_rps});
      endpoints[t] = server->add_listener(
          util::parse_endpoint(names[t] == "tcp" ? "127.0.0.1:0" : "unix:" + uds_path));
    }
    if (server) server->start();
  } else {
    endpoints[0] = util::parse_endpoint(connect);
  }
  std::vector<Transport> transports;
  for (std::size_t t = 0; t < names.size(); ++t) {
    if (names[t] == "inproc") {
      transports.push_back({names[t],
                            [&](std::size_t window) -> std::unique_ptr<Channel> {
                              return std::make_unique<InProcChannel>(*service, work, window);
                            },
                            [&] { return service->stats(); }});
    } else {  // a control connection reads the server's counters
      const auto control = std::make_shared<WireChannel>(endpoints[t], work);
      transports.push_back({names[t],
                            [&, endpoint = endpoints[t]](std::size_t) -> std::unique_ptr<Channel> {
                              return std::make_unique<WireChannel>(endpoint, work);
                            },
                            [control] { return control->client.stats().value(); }});
    }
  }

  // Moving target, self-hosted only: the numbers should not flinch when
  // the operating point re-rolls underneath them.
  std::jthread roller;
  if (service && epoch_period.count() > 0) {
    roller = std::jthread(roll_epochs, std::ref(*service), std::cref(net), epoch_period);
  }

  std::vector<Phase> phases;
  for (const Transport& transport : transports) {
    const bool wire = transport.name != "inproc";
    if (wire && throttle_rps > 0.0) {
      // The flooder's frames beyond its budget bounce as cheap kThrottled
      // replies before payload decode, never as a disconnect.
      phases.push_back(run_closed(transport, "hostile",
                                  {{"flood", 1, window, 0.0},
                                   {"polite", n_clients, 1, throttle_rps / 2.0}},
                                  work, duration_s));
      continue;
    }
    if (n_clients > 0) {
      phases.push_back(
          run_closed(transport, "closed", {{"closed", n_clients, 1, 0.0}}, work, duration_s));
    }
    if (window > 0) {
      phases.push_back(run_closed(transport, "pipelined", {{"pipelined", 1, window, 0.0}}, work,
                                  duration_s));
    }
    if (!wire && rate > 0.0) {
      phases.push_back(run_open(*service, work, rate, deadline, duration_s));
    }
  }
  roller = std::jthread();  // request_stop + join

  // Reactor syscall batching: send() calls per reply frame (< 1 once
  // replies share writes), self-hosted wire runs only.
  std::string write_calls_per_frame = "null";
  if (server) {
    server->stop();
    const net::NetServerStats net_stats = server->stats();
    if (net_stats.frames_out > 0) {
      write_calls_per_frame = std::to_string(static_cast<double>(net_stats.write_calls) /
                                             static_cast<double>(net_stats.frames_out));
    }
  }
  if (service) service->close();
  const Snapshot final_stats = service ? service->stats() : transports.front().stats();
  bool accounting_ok = final_stats.failed == 0 && final_stats.in_flight() == 0;
  for (const Phase& p : phases) {
    if (!p.reconciled() || p.client.at(Outcome::kError) != 0) accounting_ok = false;
  }

  const std::string out_path = cli.get("out");
  std::FILE* out = out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return bad("cannot open --out");
  {
    Json j(out);
    j.open("config");
    for (const auto& flag : kFlags) j.str(flag[0], cli.get(flag[0]));
    j.u64("workers_started", service ? service->num_workers() : 0);
    j.u64("mac_per_request", windows * net.mac_count());
    j.close();
    j.open("phases");
    for (const Phase& p : phases) print_phase(j, p);
    j.close();
    j.open("totals");
    j.counters(final_stats);
    j.u64("goodput", final_stats.goodput());
    j.u64("in_flight", final_stats.in_flight());
    j.raw("accounting_ok", accounting_ok ? "true" : "false");
    j.raw("write_calls_per_frame", write_calls_per_frame);
    std::array<char, 32> hash{};
    std::snprintf(hash.data(), hash.size(), "0x%016llx",
                  static_cast<unsigned long long>(probe_hash));
    j.str("score_hash", hash.data());
    j.close();
  }
  if (out != stdout) std::fclose(out);
  if (!accounting_ok) std::fprintf(stderr, "loadgen: client and server accounting disagree\n");
  return accounting_ok ? 0 : 1;
}
