// Served workloads: the benchmark self-hosts serve::ScoringService (2
// scoring workers) behind net::NetServer on a per-pid Unix socket and
// drives it over ONE connection, from at most two threads:
//
//   * saturation — one thread keeps a fixed window of requests in flight
//     (pipelined) and reports requests scored per second. No latency is
//     taken here: timing from send under a full window is coordinated
//     omission.
//   * open loop — a sender thread sends on a fixed schedule with batched
//     catch-up (sleep while far ahead, spin the residue, send every
//     overdue request at once) and a receiver thread times each reply
//     from the moment its request was DUE, so a stall counts against
//     every request queued behind it. The sender's own lag is reported.
//
// Epochs roll on the request clock (install_epoch every N requests sent)
// at a fixed error rate, so a run's operating-point mix never depends on
// scheduling.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <optional>
#include <span>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "nn/arithmetic.hpp"
#include "perfbench.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kPipelineWindow = 64;
constexpr std::size_t kRollEvery = 1024;  ///< install_epoch every this many requests sent
constexpr int kSpareSetupEvery = 2;  ///< rounds between two spare set-ups
constexpr int kRounds = 20;
constexpr auto kBucket = std::chrono::milliseconds(50);  ///< saturation rate bucket
constexpr double kWarmupSaturationS = 0.3;
constexpr double kWarmupOpenLoopS = 1.0;
constexpr std::chrono::milliseconds kRecvDeadline{20000};
constexpr std::size_t kServedMalware = 120;
constexpr std::size_t kServedBenign = 24;
constexpr std::size_t kServedTraceLength = 32768;  // 16 windows per program at period 2048

serve::DetectorEpoch epoch_at(const Inputs& in, double error_rate) {
  serve::DetectorEpoch epoch;
  epoch.network = in.victim;
  epoch.features = in.features;
  epoch.error_rate = error_rate;
  return epoch;
}

void count_reply(const net::Reply& reply, Tally& tally) {
  using serve::RequestOutcome;
  if (reply.type == net::FrameType::kScoreResult && reply.result) {
    switch (static_cast<RequestOutcome>(reply.result->outcome)) {
      case RequestOutcome::kScored: ++tally.scored; break;
      case RequestOutcome::kDeadlineMissed: ++tally.missed; break;
      case RequestOutcome::kRejected: ++tally.rejected; break;
      case RequestOutcome::kFailed: ++tally.failed; break;
      default: ++tally.errors; break;
    }
  } else if (reply.type == net::FrameType::kError && reply.error &&
             reply.error->code == net::ErrorCode::kShed) {
    ++tally.shed;
  } else if (reply.type == net::FrameType::kError && reply.error &&
             reply.error->code == net::ErrorCode::kThrottled) {
    ++tally.throttled;
  } else {
    ++tally.errors;
  }
}

faultsim::FaultStats all_faults(const serve::ServiceStatsSnapshot& snap) {
  faultsim::FaultStats total = snap.folded_faults;
  for (const auto& [id, stats] : snap.per_epoch_faults) total.merge(stats);
  return total;
}

/// What the server booked between two snapshots, in the client's buckets:
/// arrivals (enqueued or turned away at the door) and their outcomes.
Tally server_tally(const serve::ServiceStatsSnapshot& a, const serve::ServiceStatsSnapshot& b) {
  Tally t;
  t.shed = b.shed - a.shed;
  t.throttled = b.throttled - a.throttled;
  t.errors = b.rejected_closed - a.rejected_closed;
  t.rejected = (b.rejected_on_admission - a.rejected_on_admission) + (b.evicted - a.evicted);
  t.scored = b.scored - a.scored;
  t.missed = b.deadline_missed - a.deadline_missed;
  t.failed = b.failed - a.failed;
  t.sent = (b.enqueued - a.enqueued) + t.shed + t.throttled + t.errors +
           (b.rejected_on_admission - a.rejected_on_admission);
  return t;
}

/// The service, its socket front-end and the one client connection.
class SelfHosted {
 public:
  SelfHosted(const Inputs& in, double error_rate, std::uint64_t seed, std::string path)
      : in_(in), path_(std::move(path)) {
    serve::ServeConfig config;
    config.num_workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    config.seed = seed;
    service_.emplace(epoch_at(in, error_rate), config);
    server_.emplace(*service_);
    util::Endpoint endpoint;
    endpoint.kind = util::Endpoint::Kind::kUnix;
    endpoint.path = path_;
    const util::Endpoint bound = server_->add_listener(endpoint);
    server_->start();
    client_.set_recv_deadline(kRecvDeadline);
    client_.connect(bound);
  }
  ~SelfHosted() {
    client_.close();
    server_->stop();
    service_->close();
    ::unlink(path_.c_str());
  }
  SelfHosted(const SelfHosted&) = delete;
  SelfHosted& operator=(const SelfHosted&) = delete;

  /// Publish a fresh epoch at `error_rate`. The epoch value is built
  /// outside the span: the span covers the serve call only.
  std::uint64_t install(double error_rate, SpanLog* log) {
    serve::DetectorEpoch epoch = epoch_at(in_, error_rate);
    const ScopedSpan span(log, "serve.install_epoch");
    return service_->install_epoch(std::move(epoch));
  }

  /// Send one score request; the id must be the next in the
  /// connection's sequence (NetClient numbers from 1).
  std::uint64_t send(const net::ScoreRequest& request, SpanLog* log) {
    std::uint64_t id = 0;
    {
      const ScopedSpan span(log, "net.send_score");
      id = client_.send_score(request);
    }
    if (id != next_id_) throw WorkloadError("request ids out of step on the connection");
    ++next_id_;
    return id;
  }
  net::Reply receive(SpanLog* log) {
    const ScopedSpan span(log, "net.recv_reply");
    return client_.recv_reply();
  }
  [[nodiscard]] std::uint64_t next_id() const noexcept { return next_id_; }
  /// Tear down the front-end so a sender blocked on a full socket wakes
  /// with an error instead of hanging the run.
  void abort() noexcept { server_->stop(); }
  serve::ScoringService& service() { return *service_; }

 private:
  const Inputs& in_;
  std::string path_;
  std::optional<serve::ScoringService> service_;
  std::optional<net::NetServer> server_;
  net::NetClient client_;
  std::uint64_t next_id_ = 1;
};

struct Saturation {
  Tally tally;
  Tally server;  ///< the same phase as the server booked it
  double seconds = 0.0;
  std::vector<double> bucket_rps;  ///< scored per second in each full kBucket
  faultsim::FaultStats faults;
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? static_cast<double>(tally.scored) / seconds : 0.0;
  }
};

Saturation saturate(SelfHosted& host, const Inputs& in, double error_rate, double seconds,
                    SpanLog* log) {
  host.install(error_rate, nullptr);
  Saturation out;
  const serve::ServiceStatsSnapshot before = host.service().stats();
  const std::uint64_t id0 = host.next_id();
  std::vector<char> replied;  // per request sent: answered yet?
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::nanoseconds(std::llround(seconds * 1e9));
  const auto send_one = [&] {
    host.send(in.requests[replied.size() % in.requests.size()], log);
    replied.push_back(0);
    ++out.tally.sent;
    if (out.tally.sent % kRollEvery == 0) host.install(error_rate, log);
  };
  const auto receive_one = [&] {
    const net::Reply reply = host.receive(log);
    if (reply.request_id < id0 || reply.request_id - id0 >= replied.size()) {
      throw WorkloadError("saturation: reply for a request this phase never sent");
    }
    if (replied[reply.request_id - id0]++ != 0) {
      throw WorkloadError("saturation: two replies for one request");
    }
    count_reply(reply, out.tally);
  };
  for (std::size_t w = 0; w < kPipelineWindow; ++w) send_one();
  Clock::time_point bucket_start = start;
  std::uint64_t bucket_scored = 0;
  for (Clock::time_point now = start; now < end; now = Clock::now()) {
    if (now - bucket_start >= kBucket) {
      out.bucket_rps.push_back(static_cast<double>(out.tally.scored - bucket_scored) /
                               seconds_between(bucket_start, now));
      bucket_start = now;
      bucket_scored = out.tally.scored;
    }
    receive_one();
    send_one();
  }
  while (out.tally.replies() < out.tally.sent) receive_one();
  out.seconds = seconds_between(start, Clock::now());
  if (out.bucket_rps.empty()) out.bucket_rps.push_back(out.rate());  // phase shorter than a bucket
  const serve::ServiceStatsSnapshot after = host.service().stats();
  out.server = server_tally(before, after);
  const faultsim::FaultStats faults_before = all_faults(before);
  out.faults = all_faults(after);
  out.faults.operations -= faults_before.operations;
  out.faults.faults -= faults_before.faults;
  return out;
}

struct OpenLoop {
  Tally tally;
  Tally server;  ///< the same phase as the server booked it
  double elapsed_s = 0.0;  ///< first due moment to last reply
  double achieved_rps = 0.0;
  std::uint64_t on_time = 0;
  std::uint64_t scored_late = 0;  ///< server-side: scored past the request deadline
  Samples e2e_ms;     ///< scored requests: reply received - due
  Samples lag_ms;     ///< every request: send start - due
  Samples scored_lag_ms;  ///< scored requests: send start - due
  Samples server_us;  ///< scored requests: ScoreResult.latency_ns
  Samples net_us;     ///< scored requests: round trip - server latency
  faultsim::FaultStats faults;

  /// Room for `n` requests in every sample list up front, so the peak
  /// resident set does not depend on how many requests were scored.
  void reserve(std::size_t n) {
    e2e_ms.reserve(n);
    lag_ms.reserve(n);
    scored_lag_ms.reserve(n);
    server_us.reserve(n);
    net_us.reserve(n);
  }
  void merge(const OpenLoop& o) {
    tally.merge(o.tally);
    server.merge(o.server);
    elapsed_s += o.elapsed_s;
    achieved_rps = achieved_rps == 0.0 ? o.achieved_rps : std::min(achieved_rps, o.achieved_rps);
    on_time += o.on_time;
    scored_late += o.scored_late;
    e2e_ms.append(o.e2e_ms);
    lag_ms.append(o.lag_ms);
    scored_lag_ms.append(o.scored_lag_ms);
    server_us.append(o.server_us);
    net_us.append(o.net_us);
    faults.operations += o.faults.operations;
    faults.faults += o.faults.faults;
  }
};

/// Requests an open-loop phase of `seconds` sends.
std::size_t requests_in(const ServedSpec& spec, double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::floor(seconds * spec.rate_rps)));
}

OpenLoop open_loop(SelfHosted& host, const std::vector<net::ScoreRequest>& requests,
                   const ServedSpec& spec, double seconds, SpanLog* sender_log,
                   SpanLog* receiver_log) {
  host.install(spec.error_rate, nullptr);
  OpenLoop out;
  const std::size_t n = requests_in(spec, seconds);
  const double period_ns = 1e9 / spec.rate_rps;
  const serve::ServiceStatsSnapshot before = host.service().stats();
  const faultsim::FaultStats faults_before = all_faults(before);
  std::vector<std::atomic<std::int64_t>> sent_at(n);
  for (auto& s : sent_at) s.store(-1, std::memory_order_relaxed);
  const std::uint64_t id0 = host.next_id();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t k) {
    return t0 + std::chrono::nanoseconds(std::llround(static_cast<double>(k) * period_ns));
  };
  out.reserve(n);
  std::exception_ptr sender_error;
  std::atomic<std::int64_t> last_send_ns{0};
  std::thread sender([&] {
    try {
      precise_sleeps();
      std::size_t k = 0;
      while (k < n) {
        const Clock::time_point now = Clock::now();
        const Clock::time_point next_due = due(k);
        if (next_due > now) {
          if (next_due - now > kSpinBelow) std::this_thread::sleep_for(next_due - now - kSpinBelow);
          continue;  // spin the residue
        }
        while (k < n && due(k) <= now) {  // batched catch-up
          const Clock::time_point s = Clock::now();
          out.lag_ms.add(static_cast<double>(ns_between(due(k), s)) / 1e6);
          sent_at[k].store(ns_between(t0, s), std::memory_order_release);
          host.send(requests[k % requests.size()], sender_log);
          ++k;
          if (k % kRollEvery == 0) host.install(spec.error_rate, sender_log);
        }
        last_send_ns.store(ns_between(t0, Clock::now()), std::memory_order_relaxed);
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
  });
  const double limit_ns = spec.limit_ms * 1e6;
  std::vector<char> replied(n, 0);  // every request answered exactly once
  std::exception_ptr receiver_error;
  try {
    for (std::size_t r = 0; r < n; ++r) {
      const net::Reply reply = host.receive(receiver_log);
      const Clock::time_point t = Clock::now();
      if (reply.request_id < id0 || reply.request_id - id0 >= n) {
        throw WorkloadError("reply for a request this phase never sent");
      }
      const std::size_t k = reply.request_id - id0;
      if (replied[k]++ != 0) throw WorkloadError("two replies for one request");
      count_reply(reply, out.tally);
      if (reply.type != net::FrameType::kScoreResult || !reply.result ||
          reply.result->outcome != static_cast<std::uint8_t>(serve::RequestOutcome::kScored)) {
        continue;
      }
      const auto e2e_ns = static_cast<double>(ns_between(due(k), t));
      out.e2e_ms.add(e2e_ns / 1e6);
      if (e2e_ns <= limit_ns) ++out.on_time;
      const auto server_ns = static_cast<double>(reply.result->latency_ns);
      out.server_us.add(server_ns / 1e3);
      const std::int64_t s = sent_at[k].load(std::memory_order_acquire);
      if (s >= 0) {
        out.scored_lag_ms.add((static_cast<double>(s) - static_cast<double>(ns_between(t0, due(k)))) /
                              1e6);
        out.net_us.add((static_cast<double>(ns_between(t0, t) - s) - server_ns) / 1e3);
      }
    }
    out.elapsed_s = seconds_between(t0, Clock::now());
  } catch (...) {
    receiver_error = std::current_exception();
    host.abort();
  }
  sender.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (receiver_error) std::rethrow_exception(receiver_error);
  out.tally.sent = n;
  const double send_span_s = static_cast<double>(last_send_ns.load()) / 1e9;
  out.achieved_rps = send_span_s > 0.0 ? static_cast<double>(n) / send_span_s : 0.0;
  const serve::ServiceStatsSnapshot after = host.service().stats();
  out.server = server_tally(before, after);
  out.scored_late = after.scored_late - before.scored_late;
  out.faults = all_faults(after);
  out.faults.operations -= faults_before.operations;
  out.faults.faults -= faults_before.faults;
  return out;
}

/// The client's tally of a phase must match the server's own counters
/// bucket for bucket: every request sent arrived once, and every outcome
/// the server booked came back as that outcome.
void check_phase(Outcome& out, const std::string& name, const Tally& t, const Tally& server) {
  const auto same = [&](const char* bucket, std::uint64_t client, std::uint64_t booked) {
    out.check(client == booked, name + ": " + bucket + " " + std::to_string(client) +
                                    " at the client, " + std::to_string(booked) +
                                    " at the server");
  };
  same("sent", t.sent, server.sent);
  same("scored", t.scored, server.scored);
  same("deadline missed", t.missed, server.missed);
  same("rejected", t.rejected, server.rejected);
  same("failed", t.failed, server.failed);
  same("shed", t.shed, server.shed);
  same("throttled", t.throttled, server.throttled);
  out.check(t.errors == 0 && t.failed == 0, name + ": failed or error replies");
  out.attempted += t.sent;
  out.failed += t.errors + t.failed;
  out.phases[name].merge(t);
}

void check_faults(Outcome& out, const std::string& name, const faultsim::FaultStats& f,
                  double er) {
  out.check(fault_rate_ok(f.faults, f.operations, er),
            name + ": faults/operations " + std::to_string(f.faults) + "/" +
                std::to_string(f.operations) + " outside the binomial bound of er " +
                std::to_string(er));
}

/// Per-layer metrics of a traced open-loop phase. `layers` holds the
/// in-process replays of the same requests (measure_layers), `sender` the
/// phase's net.send_score spans.
void set_served_layers(const OpenLoop& ol, const SpanLog& layers, const SpanLog& sender,
                       Report& rep) {
  const double forward_us = layers.ns_per_op("nn.forward_batch.faulty") / 1e3;
  const auto sent = static_cast<double>(ol.tally.sent);
  const auto scored = static_cast<double>(ol.tally.scored);
  rep.set("net.overhead_us.p50", ol.net_us.quantile(0.50), "us");
  rep.set("serve.latency_us.p50", ol.server_us.quantile(0.50), "us");
  rep.set("serve.queue_wait_us.p50", ol.server_us.quantile(0.50) - forward_us, "us");
  rep.set("serve.shed_share", static_cast<double>(ol.tally.shed) / sent, "share");
  rep.set("serve.deadline_missed_share", static_cast<double>(ol.tally.missed) / sent, "share");
  rep.set("admit.rejected_share", static_cast<double>(ol.tally.rejected) / sent, "share");
  rep.set("admit.scored_late_share",
          scored > 0 ? static_cast<double>(ol.scored_late) / scored : 0.0, "share");
  rep.set("admit.useful_share", scored > 0 ? static_cast<double>(ol.on_time) / scored : 0.0,
          "share");
  rep.set("loadgen.lag_p99_ms", ol.lag_ms.quantile(0.99), "ms");
  set_tail(ol.e2e_ms, rep);
  rep.set("faultsim.faults_per_req",
          scored > 0 ? static_cast<double>(ol.faults.faults) / scored : 0.0, "count");
  // Mean served time from due, by recording point: the generator's lag
  // (sender clock), the client's send call (net.send_score span),
  // admission (serve.try_submit replay), the server's own
  // enqueue-to-completion latency, and the client's reply decode
  // (net.decode_score_result replay). No span covers the rest of the
  // round trip (socket transit, the reactor's request decode and reply
  // write, thread wake-ups on both sides); it is reported on its own, so a
  // missing or wrong span moves the share.
  const double accounted_ms = ol.scored_lag_ms.mean() + ol.server_us.mean() / 1e3 +
                              (sender.ns_per_op("net.send_score") +
                               layers.ns_per_op("serve.try_submit") +
                               layers.ns_per_op("net.decode_score_result")) /
                                  1e6;
  rep.set("tracing.accounted_share", accounted_ms / ol.e2e_ms.mean(), "share");
  rep.set("tracing.unexplained_us", (ol.e2e_ms.mean() - accounted_ms) * 1e3, "us");
}


}  // namespace

Outcome run_served(const RunOptions& opt, const ServedSpec& spec) {
  Outcome out;
  Report& rep = out.report;
  SpanLog* const none = nullptr;
  const std::string path = socket_path("served");
  const std::uint64_t service_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 0x5E7F1CEULL;

  // Set-up: generate the corpus, train the victim, cut the request
  // stream, start service + server + connection. The first set-up serves
  // the run. Spare ones, one every kSpareSetupEvery rounds, are timed and
  // torn down again, so the median samples the host over the whole run
  // instead of one moment of it.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> train_s;
  const auto set_up = [&](std::optional<Inputs>& inputs, std::optional<SelfHosted>& hosted,
                          const std::string& where) {
    const Clock::time_point t0 = Clock::now();
    inputs.emplace(make_inputs(opt.seed, kServedMalware, kServedBenign, kServedTraceLength,
                               spec.windows_per_request));
    hosted.emplace(*inputs, spec.error_rate, service_seed, where);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(inputs->corpus_build_s);
    train_s.push_back(inputs->train_s);
  };
  std::optional<Inputs> in;
  std::optional<SelfHosted> host;
  set_up(in, host, path);
  std::vector<net::ScoreRequest> open_requests = in->requests;
  for (net::ScoreRequest& req : open_requests) {
    req.deadline_us = static_cast<std::uint32_t>(std::llround(spec.deadline_ms * 1e3));
  }
  const double other_er = spec.error_rate > 0.0 ? 0.0 : 0.10;
  const double s = opt.seconds;

  // Warm-up: caches, allocator arenas, the admission EWMA and the reactor
  // all settle before anything is timed.
  const Saturation warm_sat = saturate(*host, *in, spec.error_rate, kWarmupSaturationS, none);
  check_phase(out, "warmup_saturation", warm_sat.tally, warm_sat.server);
  const OpenLoop warm_ol = open_loop(*host, open_requests, spec, kWarmupOpenLoopS, none, none);
  check_phase(out, "warmup_open_loop", warm_ol.tally, warm_ol.server);

  // The timed part runs in kRounds interleaved rounds (own-er saturation,
  // other-er saturation, open loop). On a shared host the speed drops for
  // stretches of several seconds; interleaving spreads every phase over the
  // whole run, and each figure is a median (throughput over the kBucket
  // slices of all rounds; p50, SLO share and goodput over the rounds), so
  // a slow stretch shorter than half the run moves none of them.
  const Clock::time_point origin = Clock::now();
  SpanLog sat_log(origin);
  SpanLog sender_log(origin);
  SpanLog receiver_log(origin);
  SpanLog* const sat_trace = opt.trace ? &sat_log : nullptr;
  const double slice = s / kRounds;
  std::vector<double> own_rps, other_rps, p50, slo, goodput, overhead;
  OpenLoop ol;  // all rounds merged, for the per-layer table
  const double open_s = 0.6 * slice;
  ol.reserve(kRounds * requests_in(spec, open_s));
  for (int r = 0; r < kRounds; ++r) {
    if (opt.trace) {
      const Saturation untraced = saturate(*host, *in, spec.error_rate, 0.25 * slice, none);
      check_phase(out, "saturation_untraced", untraced.tally, untraced.server);
      overhead.push_back(untraced.rate());
    }
    const Saturation own = saturate(*host, *in, spec.error_rate, 0.25 * slice, sat_trace);
    const Saturation other = saturate(*host, *in, other_er, 0.15 * slice, sat_trace);
    const OpenLoop round = open_loop(*host, open_requests, spec, open_s,
                                     opt.trace ? &sender_log : nullptr,
                                     opt.trace ? &receiver_log : nullptr);
    check_phase(out, "saturation_own_er", own.tally, own.server);
    check_phase(out, "saturation_other_er", other.tally, other.server);
    check_phase(out, "open_loop", round.tally, round.server);
    check_faults(out, "saturation_own_er", own.faults, spec.error_rate);
    check_faults(out, "saturation_other_er", other.faults, other_er);
    if (round.tally.scored > 0) check_faults(out, "open_loop", round.faults, spec.error_rate);
    if (opt.trace) overhead.back() = 1.0 - own.rate() / overhead.back();
    own_rps.insert(own_rps.end(), own.bucket_rps.begin(), own.bucket_rps.end());
    other_rps.insert(other_rps.end(), other.bucket_rps.begin(), other.bucket_rps.end());
    p50.push_back(round.e2e_ms.quantile(0.50));
    slo.push_back(static_cast<double>(round.on_time) / static_cast<double>(round.tally.sent));
    goodput.push_back(static_cast<double>(round.on_time) / round.elapsed_s);
    ol.merge(round);
    if (r % kSpareSetupEvery == kSpareSetupEvery - 1) {
      std::optional<Inputs> spare_in;
      std::optional<SelfHosted> spare_host;
      set_up(spare_in, spare_host, socket_path("spare"));
    }
  }
  const double capacity = median(own_rps);
  const double er10_rps = spec.error_rate > 0.0 ? capacity : median(other_rps);
  const double er0_rps = spec.error_rate > 0.0 ? median(other_rps) : capacity;

  const std::size_t windows = in->requests.front().windows.size();
  const auto per_window = static_cast<double>(windows);
  if (!opt.trace) {
    rep.set("setup_s", median(setup_s), "s");
    rep.set("capacity_rps", capacity, "1/s");
    rep.set("windows_per_s.er0", er0_rps * per_window, "1/s");
    rep.set("windows_per_s.er10", er10_rps * per_window, "1/s");
    rep.set("p50_ms", median(p50), "ms");
    rep.set("slo_share", median(slo), "share");
    rep.set("goodput_rps", median(goodput), "1/s");
  }

  print_setups(setup_s);
  // Server-side accounting after the drain.
  const serve::ServiceStatsSnapshot final_stats = host->service().stats();
  out.check(final_stats.in_flight() == 0, "server in_flight != 0 after the drain");
  out.check(final_stats.failed == 0, "server counted failed requests");

  std::fprintf(stderr,
               "[served] windows/req %zu er %.2f: capacity %.0f rps (er0 %.0f, er10 %.0f); "
               "open loop %.0f rps offered (lowest achieved %.0f), %llu sent: %llu scored "
               "(%llu on time), %llu shed, %llu rejected, %llu missed; pooled latency from due "
               "over %zu scored: p50 %.3f p90 %.3f p99 %.3f ms; generator lag p99 %.3f ms\n",
               windows, spec.error_rate, capacity, er0_rps, er10_rps, spec.rate_rps,
               ol.achieved_rps, static_cast<unsigned long long>(ol.tally.sent),
               static_cast<unsigned long long>(ol.tally.scored),
               static_cast<unsigned long long>(ol.on_time),
               static_cast<unsigned long long>(ol.tally.shed),
               static_cast<unsigned long long>(ol.tally.rejected),
               static_cast<unsigned long long>(ol.tally.missed), ol.e2e_ms.size(),
               ol.e2e_ms.quantile(0.50), ol.e2e_ms.quantile(0.90), ol.e2e_ms.quantile(0.99),
               ol.lag_ms.quantile(0.99));

  if (opt.trace) {
    rep.set("trace.corpus_build_s", median(build_s), "s");
    rep.set("hmd.train_s", median(train_s), "s");
    rep.set("tracing.overhead_share", median(overhead), "share");
    SpanLog layer_log(origin);
    measure_layers(*in, spec.error_rate, service_seed, 0.3 * s, layer_log, rep);
    set_served_layers(ol, layer_log, sender_log, rep);
    SpanLog all(origin);
    all.append(sat_log);
    all.append(sender_log);
    all.append(receiver_log);
    rep.set("serve.epoch_install_us", all.ns_per_op("serve.install_epoch") / 1e3, "us");
    all.append(layer_log);
    print_spans(all);
  }

  host.reset();
  parity_gate(*in, opt.seed, socket_path("probe"), out);
  if (!opt.trace) rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

void served_layer_probe(const Inputs& in, const ServedSpec& spec, std::uint64_t seed,
                        double seconds, const SpanLog& layers, SpanLog& log, Report& rep,
                        Outcome& out) {
  SelfHosted host(in, spec.error_rate, seed, socket_path("layer"));
  const OpenLoop warm = open_loop(host, in.requests, spec, 0.3, nullptr, nullptr);
  check_phase(out, "probe_warmup", warm.tally, warm.server);
  SpanLog receiver_log(Clock::now());
  const OpenLoop ol = open_loop(host, in.requests, spec, seconds, &log, &receiver_log);
  check_phase(out, "probe_open_loop", ol.tally, ol.server);
  set_served_layers(ol, layers, log, rep);
  rep.set("serve.epoch_install_us", log.ns_per_op("serve.install_epoch") / 1e3, "us");
  log.append(receiver_log);
}

void parity_gate(const Inputs& in, std::uint64_t seed, const std::string& path, Outcome& out) {
  constexpr std::size_t kProbe = 32;
  constexpr double kEr = 0.10;
  const std::size_t n = std::min(kProbe, in.requests.size());
  const std::uint64_t probe_seed = seed ^ 0xC0FFEE5EEDULL;
  std::vector<const trace::FeatureSet*> batch;
  for (std::size_t k = 0; k < n; ++k) batch.push_back(&in.programs[k]);
  const auto in_process = [&](double er) {
    serve::ServeConfig config;
    config.num_workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    config.seed = probe_seed;
    serve::ScoringService service(epoch_at(in, er), config);
    return service.score_all(std::span<const trace::FeatureSet* const>(batch));
  };
  const auto same_bits = [](const std::vector<double>& a, std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  // er = 0.10: the k-th accepted request's fault stream is a function of
  // (seed, k) alone, so the wire, the queue and a direct re-anchored
  // forward must agree bit for bit.
  std::vector<std::vector<double>> served;
  {
    SelfHosted host(in, kEr, probe_seed, path);
    for (std::size_t k = 0; k < n; ++k) {
      host.send(in.requests[k], nullptr);
      const net::Reply reply = host.receive(nullptr);
      served.push_back(reply.result ? reply.result->scores : std::vector<double>{});
    }
  }
  const std::vector<std::vector<double>> queued = in_process(kEr);
  faultsim::FaultInjector injector(kEr, faultsim::BitFaultDistribution::measured(), probe_seed);
  nn::FaultyContext faulty(injector);
  nn::ExactContext exact;
  nn::ForwardScratch scratch;
  std::size_t mismatched = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<double> tile = tile_of(in.requests[k]);
    injector.generator() = rng::Xoshiro256ss(rng::stream_seed(probe_seed, k));
    const std::span<const double> direct =
        in.victim.forward_batch(tile, in.requests[k].windows.size(), faulty, scratch);
    if (!same_bits(served[k], direct) || !same_bits(queued[k], direct)) ++mismatched;
  }
  out.check(mismatched == 0, "parity probe at er 0.10: " + std::to_string(mismatched) + " of " +
                                 std::to_string(n) +
                                 " requests differ across UDS / score_all / forward_batch");
  out.check(fault_rate_ok(injector.stats().faults, injector.stats().operations, kEr),
            "parity probe at er 0.10: fault rate outside the binomial bound");

  // er = 0: the service must return the exact forward.
  const std::vector<std::vector<double>> exact_served = in_process(0.0);
  std::size_t inexact = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<double> tile = tile_of(in.requests[k]);
    if (!same_bits(exact_served[k],
                   in.victim.forward_batch(tile, in.requests[k].windows.size(), exact, scratch))) {
      ++inexact;
    }
  }
  out.check(inexact == 0, "parity probe at er 0: " + std::to_string(inexact) +
                              " requests differ from the exact forward");
}

}  // namespace perfbench
