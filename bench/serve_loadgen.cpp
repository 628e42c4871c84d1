// serve_loadgen: load generator for the always-on scoring service.
//
// Two client models, both standard serving-bench practice:
//
//   * closed loop — N clients, each submits one request, waits for the
//     verdict, and immediately submits the next. Measures peak sustainable
//     throughput (the queue never overflows; clients self-throttle).
//   * open loop — a pacer fires try_submit at a fixed target rate
//     regardless of completions, the way real traffic arrives. Measures
//     behaviour *past* saturation: shed fraction and tail latency under
//     overload, which the closed loop structurally cannot see.
//
// An optional epoch thread re-rolls the detector's operating point every
// --epoch-period-ms, so the numbers include the cost of moving-target
// reconfiguration under sustained load (it should be invisible).
//
// Emits a raw JSON report (stdout or --out); CI reduces it to
// BENCH_serve.json with bench/emit_bench_json.py --serve.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "admit/policy.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"
#include "trace/dataset.hpp"
#include "util/cli.hpp"

namespace {

using namespace shmd;
using Clock = serve::ServiceClock;

constexpr std::size_t kInputs = 16;

nn::Network make_net() {
  const std::vector<std::size_t> topo{kInputs, 32, 16, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

std::vector<trace::FeatureSet> make_workload(std::size_t n_programs,
                                             std::size_t windows_per_program,
                                             const trace::FeatureConfig& fc) {
  rng::Xoshiro256ss gen(7);
  std::vector<trace::FeatureSet> workload(n_programs);
  for (trace::FeatureSet& fs : workload) {
    std::vector<std::vector<double>> windows(windows_per_program,
                                             std::vector<double>(kInputs));
    for (auto& window : windows) {
      for (double& x : window) x = gen.uniform01();
    }
    fs.put(fc, std::move(windows));
  }
  return workload;
}

/// Histogram of the requests scored within one phase: bucket-wise diff of
/// two cumulative snapshots.
serve::LatencyHistogram diff_hist(const serve::LatencyHistogram& after,
                                  const serve::LatencyHistogram& before) {
  serve::LatencyHistogram d;
  for (std::size_t b = 0; b < serve::LatencyHistogram::kBuckets; ++b) {
    d.counts[b] = after.counts[b] - before.counts[b];
  }
  d.total = after.total - before.total;
  return d;
}

/// One `"name": value,` JSON line per service counter.
void print_counters(std::FILE* out, const serve::ServiceStatsSnapshot& snap) {
  for (const auto& row : serve::kServiceCounters) {
    std::fprintf(out, "    \"%.*s\": %llu,\n", static_cast<int>(row.name.size()),
                 row.name.data(), static_cast<unsigned long long>(snap.*row.member));
  }
}

struct PhaseReport {
  std::string mode;
  double duration_s = 0.0;
  std::uint64_t submitted = 0;
  serve::ServiceStatsSnapshot counts;  ///< kServiceCounters deltas over the phase
  double goodput_rps = 0.0;     ///< requests scored WITHIN deadline per second — the
                                ///< headline metric; == throughput when no deadline
  double throughput_rps = 0.0;  ///< raw scored per second (work done, useful or not)
  double achieved_rate_rps = 0.0;  ///< offered rate the pacer actually sustained
  double p50_us = 0.0;
  double p99_us = 0.0;
  double missed_wait_p50_us = 0.0;  ///< queue wait of deadline-missed requests
  double missed_wait_p99_us = 0.0;
};

PhaseReport phase_report(std::string mode, double duration_s, std::uint64_t submitted,
                         const serve::ServiceStatsSnapshot& before,
                         const serve::ServiceStatsSnapshot& after) {
  PhaseReport r;
  r.mode = std::move(mode);
  r.duration_s = duration_s;
  r.submitted = submitted;
  for (const auto& row : serve::kServiceCounters) {
    r.counts.*row.member = after.*row.member - before.*row.member;
  }
  r.goodput_rps = duration_s > 0.0 ? static_cast<double>(r.counts.goodput()) / duration_s : 0.0;
  r.throughput_rps = duration_s > 0.0 ? static_cast<double>(r.counts.scored) / duration_s : 0.0;
  r.achieved_rate_rps = duration_s > 0.0 ? static_cast<double>(submitted) / duration_s : 0.0;
  const serve::LatencyHistogram hist = diff_hist(after.latency, before.latency);
  r.p50_us = hist.p50_ns() / 1e3;
  r.p99_us = hist.p99_ns() / 1e3;
  const serve::LatencyHistogram missed = diff_hist(after.missed_wait, before.missed_wait);
  r.missed_wait_p50_us = missed.p50_ns() / 1e3;
  r.missed_wait_p99_us = missed.p99_ns() / 1e3;
  return r;
}

void print_phase(std::FILE* out, const PhaseReport& r, bool last) {
  std::fprintf(out, "  \"%s\": {\n    \"duration_s\": %.3f,\n    \"submitted\": %llu,\n",
               r.mode.c_str(), r.duration_s, static_cast<unsigned long long>(r.submitted));
  print_counters(out, r.counts);
  std::fprintf(out,
               "    \"goodput_rps\": %.1f,\n"
               "    \"throughput_rps\": %.1f,\n"
               "    \"achieved_rate_rps\": %.1f,\n"
               "    \"p50_us\": %.1f,\n"
               "    \"p99_us\": %.1f,\n"
               "    \"missed_wait_p50_us\": %.1f,\n"
               "    \"missed_wait_p99_us\": %.1f\n"
               "  }%s\n",
               r.goodput_rps, r.throughput_rps, r.achieved_rate_rps, r.p50_us, r.p99_us,
               r.missed_wait_p50_us, r.missed_wait_p99_us, last ? "" : ",");
}

/// FNV-1a over the raw bit patterns of every score double, in request
/// order — a stable fingerprint of the full score tensor.
std::uint64_t score_hash(const std::vector<std::vector<double>>& scores) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<double>& request : scores) {
    for (const double s : request) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(s);
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

/// Determinism probe: a fresh service with a FIXED seed scores a fixed
/// workload in a fixed admission order. Scores are a pure function of
/// (seed, admission order) — per-request fault streams re-anchor at
/// request boundaries within each tile — so the hash must be identical
/// for ANY --batch and ANY --workers. CI runs the loadgen at --batch 1
/// and --batch 16 and asserts the two hashes match bit-for-bit.
std::uint64_t determinism_probe(const nn::Network& net, const trace::FeatureConfig& fc,
                                std::size_t max_batch, admit::PolicyKind policy) {
  const hmd::StochasticHmd det(net, fc, 0.10);
  serve::ServeConfig config;
  config.num_workers = 2;
  config.queue_capacity = 256;
  config.max_batch = max_batch;
  config.seed = 0xD5EEDULL;
  config.admission_policy = policy;
  serve::ScoringService probe(serve::make_epoch(det), config);
  const std::vector<trace::FeatureSet> workload = make_workload(48, 8, fc);
  std::vector<const trace::FeatureSet*> ptrs;
  ptrs.reserve(workload.size());
  for (const trace::FeatureSet& fs : workload) ptrs.push_back(&fs);
  return score_hash(probe.score_all(ptrs));
}

/// Re-rolls the operating point every `period` until `stop`: the bench's
/// stand-in for the thermal governor / re-exploration control plane.
void epoch_roller(serve::ScoringService& service, const nn::Network& net,
                  const trace::FeatureConfig& fc, std::chrono::milliseconds period,
                  const std::atomic<bool>& stop) {
  const std::vector<double> schedule = {0.10, 0.05, 0.15};
  std::size_t i = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    if (stop.load(std::memory_order_relaxed)) break;
    hmd::StochasticHmd moved(net, fc, schedule[i++ % schedule.size()]);
    service.install_epoch(serve::make_epoch(moved));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_flag("workers", "scoring workers (0 = all cores)", "0");
  cli.add_flag("clients", "closed-loop client threads", "8");
  cli.add_flag("queue", "ring capacity", "256");
  cli.add_flag("duration-s", "seconds per phase", "2");
  cli.add_flag("rate", "open-loop target rate, requests/s", "200000");
  cli.add_flag("windows", "windows per feature set", "16");
  cli.add_flag("batch", "max requests a worker drains per queue pop", "16");
  cli.add_flag("epoch-period-ms", "epoch re-roll period (0 = no roller)", "100");
  cli.add_flag("deadline-ms", "open-loop per-request deadline (0 = none)", "0");
  cli.add_flag("policy", "admission policy: fifo | drop-oldest | lifo", "fifo");
  cli.add_flag("out", "write the JSON report here instead of stdout", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto workers = static_cast<std::size_t>(cli.get_int("workers"));
  const auto n_clients = static_cast<std::size_t>(cli.get_int("clients"));
  const auto queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
  const double duration_s = cli.get_double("duration-s");
  const double rate = cli.get_double("rate");
  const auto windows = static_cast<std::size_t>(cli.get_int("windows"));
  const auto max_batch = static_cast<std::size_t>(cli.get_int("batch"));
  const std::chrono::milliseconds epoch_period(cli.get_int("epoch-period-ms"));
  const std::chrono::milliseconds deadline_ms(cli.get_int("deadline-ms"));
  const std::optional<admit::PolicyKind> policy = admit::parse_policy(cli.get("policy"));
  if (!policy.has_value()) {
    std::fprintf(stderr, "serve_loadgen: unknown --policy '%s' (want fifo | drop-oldest | lifo)\n",
                 cli.get("policy").c_str());
    return 1;
  }
  const std::string out_path = cli.get("out");

  const trace::FeatureConfig fc{trace::FeatureView::kInsnCategory, 2048};
  const nn::Network net = make_net();
  const hmd::StochasticHmd hmd(net, fc, 0.10);
  const std::vector<trace::FeatureSet> workload = make_workload(64, windows, fc);

  // Deterministic fingerprint before the load phases: same (seed,
  // admission order) must hash identically no matter the batch size.
  const std::uint64_t probe_hash = determinism_probe(net, fc, max_batch, *policy);

  serve::ServeConfig config;
  config.num_workers = workers;
  config.queue_capacity = queue_capacity;
  config.max_batch = max_batch;
  config.admission_policy = *policy;
  serve::ScoringService service(serve::make_epoch(hmd), config);

  std::atomic<bool> stop_roller{false};
  std::thread roller;
  if (epoch_period.count() > 0) {
    roller = std::thread(epoch_roller, std::ref(service), std::cref(net), std::cref(fc),
                         epoch_period, std::cref(stop_roller));
  }

  // ---- closed loop: peak sustainable throughput -------------------------
  std::fprintf(stderr, "closed loop: %zu clients x %.1fs against %zu workers...\n",
               n_clients, duration_s, service.num_workers());
  const serve::ServiceStatsSnapshot closed_before = service.stats();
  std::atomic<std::uint64_t> closed_submitted{0};
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_end =
      closed_start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  {
    std::vector<std::thread> clients;
    clients.reserve(n_clients);
    for (std::size_t c = 0; c < n_clients; ++c) {
      clients.emplace_back([&, c] {
        serve::ScoreTicket ticket;
        std::uint64_t sent = 0;
        std::size_t i = c;  // stagger which feature set each client hammers
        while (Clock::now() < closed_end) {
          if (service.submit(workload[i++ % workload.size()], ticket) !=
              serve::SubmitStatus::kAccepted) {
            break;
          }
          ticket.wait();
          ++sent;
        }
        closed_submitted.fetch_add(sent, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double closed_elapsed =
      std::chrono::duration<double>(Clock::now() - closed_start).count();
  const PhaseReport closed =
      phase_report("closed_loop", closed_elapsed, closed_submitted.load(),
                   closed_before, service.stats());

  // ---- open loop: fixed arrival rate, shed past saturation --------------
  std::fprintf(stderr, "open loop: %.0f req/s x %.1fs...\n", rate, duration_s);
  const serve::ServiceStatsSnapshot open_before = service.stats();
  std::uint64_t open_submitted = 0;
  std::uint64_t open_shed_client = 0;
  const Clock::time_point open_start = Clock::now();
  const Clock::time_point open_end =
      open_start + std::chrono::microseconds(static_cast<std::int64_t>(duration_s * 1e6));
  {
    // In-flight accepted requests never exceed capacity + workers (the
    // ring bounds them), so a round-robin pool a bit larger than that
    // almost always has its next slot free. If it does not (completions
    // run slightly out of order across workers), the request is shed at
    // the client — the pacer must NEVER block, or the "open" loop
    // silently degrades into a closed one and overload becomes invisible.
    std::vector<serve::ScoreTicket> pool(queue_capacity + 4 * service.num_workers() + 8);
    const std::chrono::nanoseconds period(static_cast<std::int64_t>(1e9 / rate));
    // Batched catch-up pacing. The old per-request `sleep_until(next_send)`
    // oversleeps by the scheduler quantum (tens of µs) at µs periods, so at
    // 50k+ rps it silently capped the *achieved* rate far below target. The
    // schedule is absolute — request k is due at open_start + k*period — and
    // each wake submits EVERY request already due as one burst, so oversleep
    // shifts individual send times but never loses offered load. Sleep only
    // when ahead by more than one scheduler quantum; spin across the residue.
    constexpr std::chrono::microseconds kSleepSlack(150);
    Clock::time_point next_send = open_start;
    std::size_t slot = 0;
    std::size_t i = 0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= open_end) break;
      if (next_send > now) {
        if (next_send - now > kSleepSlack) {
          std::this_thread::sleep_until(next_send - kSleepSlack);
        }
        continue;  // spin (re-check the clock) through the final stretch
      }
      const auto deadline =
          deadline_ms.count() > 0 ? std::optional<Clock::time_point>(now + deadline_ms)
                                  : std::nullopt;
      do {  // submit the whole overdue burst before looking at the clock again
        next_send += period;
        serve::ScoreTicket& ticket = pool[slot++ % pool.size()];
        ++open_submitted;
        if (!ticket.done()) {
          ++open_shed_client;
          continue;
        }
        (void)service.try_submit(workload[i++ % workload.size()], ticket, deadline);
      } while (next_send <= now);
    }
    for (serve::ScoreTicket& ticket : pool) ticket.wait();
  }
  const double open_elapsed =
      std::chrono::duration<double>(Clock::now() - open_start).count();
  PhaseReport open = phase_report("open_loop", open_elapsed, open_submitted, open_before,
                                  service.stats());
  open.counts.shed += open_shed_client;  // client-side sheds (no free ticket) count too

  if (roller.joinable()) {
    stop_roller.store(true, std::memory_order_relaxed);
    roller.join();
  }
  service.close();
  const serve::ServiceStatsSnapshot final_stats = service.stats();

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("serve_loadgen: cannot open " + out_path);
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\n"
               "    \"workers\": %zu,\n"
               "    \"clients\": %zu,\n"
               "    \"queue_capacity\": %zu,\n"
               "    \"windows_per_request\": %zu,\n"
               "    \"target_rate_rps\": %.0f,\n"
               "    \"batch\": %zu,\n"
               "    \"epoch_period_ms\": %lld,\n"
               "    \"deadline_ms\": %lld,\n"
               "    \"policy\": \"%s\",\n"
               "    \"mac_per_request\": %zu\n"
               "  },\n",
               service.num_workers(), n_clients, queue_capacity, windows, rate, max_batch,
               static_cast<long long>(epoch_period.count()),
               static_cast<long long>(deadline_ms.count()),
               std::string(admit::policy_name(*policy)).c_str(),
               windows * net.mac_count());
  print_phase(out, closed, /*last=*/false);
  print_phase(out, open, /*last=*/false);
  std::fprintf(out, "  \"totals\": {\n");
  print_counters(out, final_stats);
  std::fprintf(out,
               "    \"goodput\": %llu,\n"
               "    \"in_flight\": %llu,\n"
               "    \"score_hash\": \"0x%016llx\"\n"
               "  }\n",
               static_cast<unsigned long long>(final_stats.goodput()),
               static_cast<unsigned long long>(final_stats.in_flight()),
               static_cast<unsigned long long>(probe_hash));
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
