// In-process layer replays for the traced run. Each replays the run's own
// request stream through one layer's public entry point, with spans from
// this file around the calls (a timed loop of `ops` calls where one call
// is too short for two clock reads to be negligible).
#include <array>
#include <functional>

#include "hmd/detector.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "nn/arithmetic.hpp"
#include "perfbench.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "runtime/batch_scorer.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 32;  ///< calls per span for the short calls

/// Run `body(i)` for request indices 0, 1, ... (cycling) until `seconds`
/// pass, `batch` indices per check of the clock. Returns the count run.
std::size_t run_for(double seconds, std::size_t n_requests, std::size_t batch,
                    const std::function<void(std::size_t first, std::size_t count)>& body) {
  const Clock::time_point end =
      Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  std::size_t done = 0;
  do {
    body(done % n_requests, batch);
    done += batch;
  } while (Clock::now() < end);
  return done;
}

}  // namespace

void measure_layers(const Inputs& in, double error_rate, std::uint64_t seed, double budget_s,
                    SpanLog& log, Report& rep) {
  const std::vector<net::ScoreRequest>& requests = in.requests;
  const std::size_t n = requests.size();
  const nn::Network& net = in.victim;
  std::vector<std::vector<double>> tiles;
  tiles.reserve(n);
  for (const auto& request : requests) tiles.push_back(tile_of(request));

  // -- net: frame + payload codec, both directions ------------------------
  std::vector<std::vector<std::uint8_t>> replies(n);
  double wire_bytes = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    net::ScoreResult result;
    result.scores.assign(requests[i].windows.size(), 0.5);
    replies[i] = net::encode_score_result(result);
    wire_bytes += static_cast<double>(2 * net::kHeaderSize + replies[i].size() +
                                      net::encode_score_request(requests[i]).size());
  }
  std::vector<std::uint8_t> wire;
  std::size_t decoded = 0;
  run_for(0.10 * budget_s, n, kBatch, [&](std::size_t first, std::size_t count) {
    {
      const ScopedSpan span(&log, "net.encode_frame", count);
      for (std::size_t j = 0; j < count; ++j) {
        net::Frame frame;
        frame.type = net::FrameType::kScore;
        frame.request_id = first + j;
        frame.payload = net::encode_score_request(requests[(first + j) % n]);
        wire.clear();
        net::encode_frame(frame, wire);
      }
    }
    const ScopedSpan span(&log, "net.decode_score_result", count);
    for (std::size_t j = 0; j < count; ++j) {
      decoded += net::decode_score_result(replies[(first + j) % n]).has_value() ? 1 : 0;
    }
  });
  if (decoded == 0) throw WorkloadError("codec replay decoded nothing");
  rep.set("net.codec_ns",
          log.ns_per_op("net.encode_frame") + log.ns_per_op("net.decode_score_result"), "ns");
  rep.set("net.bytes_per_req", wire_bytes / static_cast<double>(n), "bytes");

  // -- serve: try_submit on a fresh service, same request stream ----------
  {
    serve::DetectorEpoch epoch;
    epoch.network = net;
    epoch.features = in.features;
    epoch.error_rate = error_rate;
    serve::ServeConfig config;
    config.num_workers = kWorkers;
    config.queue_capacity = kQueueCapacity;
    config.seed = seed;
    serve::ScoringService service(std::move(epoch), config);
    std::array<serve::ScoreTicket, 2 * kBatch> tickets;
    std::size_t round = 0;
    run_for(0.10 * budget_s, n, kBatch, [&](std::size_t first, std::size_t count) {
      const std::size_t base = (round++ % 2) * kBatch;
      for (std::size_t j = 0; j < count; ++j) tickets[base + j].wait();
      const ScopedSpan span(&log, "serve.try_submit", count);
      for (std::size_t j = 0; j < count; ++j) {
        (void)service.try_submit(in.programs[(first + j) % n], tickets[base + j]);
      }
    });
    for (auto& ticket : tickets) ticket.wait();
    service.close();
  }
  rep.set("serve.submit_ns", log.ns_per_op("serve.try_submit"), "ns");

  // -- nn: forward_batch per request, exact and faulty --------------------
  nn::ForwardScratch scratch;
  nn::ExactContext exact;
  std::vector<std::vector<double>> scores(n);
  run_for(0.15 * budget_s, n, 1, [&](std::size_t i, std::size_t) {
    const std::size_t rows = requests[i].windows.size();
    std::span<const double> out;
    {
      const ScopedSpan span(&log, "nn.forward_batch.exact");
      out = net.forward_batch(tiles[i], rows, exact, scratch);
    }
    scores[i].assign(out.begin(), out.end());
  });
  faultsim::FaultInjector injector(error_rate, faultsim::BitFaultDistribution::measured(), seed);
  nn::FaultyContext faulty(injector);
  std::uint64_t seq = 0;
  const std::size_t faulty_runs = run_for(0.20 * budget_s, n, 1, [&](std::size_t i, std::size_t) {
    injector.generator() = rng::Xoshiro256ss(rng::stream_seed(seed, seq++));
    const ScopedSpan span(&log, "nn.forward_batch.faulty");
    (void)net.forward_batch(tiles[i], requests[i].windows.size(), faulty, scratch);
  });
  double macs = 0.0;
  for (const auto& request : requests) macs += static_cast<double>(macs_per_request(net, request));
  macs /= static_cast<double>(n);
  const double exact_ns = log.ns_per_op("nn.forward_batch.exact");
  const double faulty_ns = log.ns_per_op("nn.forward_batch.faulty");
  rep.set("nn.forward_us.exact", exact_ns / 1e3, "us");
  rep.set("nn.forward_us.faulty", faulty_ns / 1e3, "us");
  rep.set("nn.mac_per_s.exact", macs / exact_ns * 1e9, "1/s");
  rep.set("nn.mac_per_s.faulty", macs / faulty_ns * 1e9, "1/s");
  // Fault sampling's share of the faulty forward: what the faulty path
  // costs beyond the exact one, per injected fault.
  const double faults_per_req =
      static_cast<double>(injector.stats().faults) / static_cast<double>(faulty_runs);
  rep.set("faultsim.ns_per_fault",
          faults_per_req > 0.0 ? (faulty_ns - exact_ns) / faults_per_req : 0.0, "ns");
  rep.set("faultsim.forward_share",
          faults_per_req > 0.0 ? (faulty_ns - exact_ns) / faulty_ns : 0.0, "share");

  // -- kernels: the dispatched GEMM over each request's layer tiles -------
  std::vector<double> a;
  std::vector<double> b;
  double gemm_macs = 0.0;
  double gemm_bytes = 0.0;
  std::size_t gemm_calls = 0;
  const nn::kernels::KernelTable& kt = nn::kernels::active();
  run_for(0.10 * budget_s, n, kBatch, [&](std::size_t first, std::size_t count) {
    const ScopedSpan span(&log, "kernels.gemm", count);
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = (first + j) % n;
      const std::size_t rows = requests[i].windows.size();
      const double* x = tiles[i].data();
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        const nn::Layer& layer = net.layer(l);
        std::vector<double>& y = (l % 2 == 0) ? a : b;
        y.resize(rows * layer.out_dim);
        kt.gemm(layer.weights.data(), layer.biases.data(), x, rows, layer.in_dim, layer.out_dim,
                y.data());
        x = y.data();
        gemm_macs += static_cast<double>(rows * layer.in_dim * layer.out_dim);
        gemm_bytes += 8.0 * static_cast<double>(layer.in_dim * layer.out_dim + layer.out_dim +
                                                rows * layer.in_dim + rows * layer.out_dim);
        ++gemm_calls;
      }
    }
  });
  const auto gemm_totals = log.totals()["kernels.gemm"];
  rep.set("kernels.gemm_mac_per_s", gemm_macs / gemm_totals.total_ns * 1e9, "1/s");
  // Bytes a call touches, computed from tensor sizes (weights, bias,
  // input tile, output tile), not measured traffic.
  rep.set("kernels.bytes_per_call", gemm_bytes / static_cast<double>(gemm_calls), "bytes");

  // -- hmd: the fraction vote over each request's window scores -----------
  std::size_t votes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scores[i].empty()) scores[i].assign(requests[i].windows.size(), 0.5);
  }
  run_for(0.05 * budget_s, n, kBatch, [&](std::size_t first, std::size_t count) {
    const ScopedSpan span(&log, "hmd.fraction_vote", count);
    for (std::size_t j = 0; j < count; ++j) {
      votes += hmd::fraction_vote(scores[(first + j) % n], 0.5,
                                  hmd::Detector::kDefaultVoteFraction)
                   ? 1
                   : 0;
    }
  });
  rep.set("hmd.vote_ns", log.ns_per_op("hmd.fraction_vote"), "ns");

  // -- rng: the per-request stream re-anchor the service performs ---------
  run_for(0.05 * budget_s, n, kBatch, [&](std::size_t first, std::size_t count) {
    const ScopedSpan span(&log, "rng.reanchor", count);
    for (std::size_t j = 0; j < count; ++j) {
      injector.generator() = rng::Xoshiro256ss(rng::stream_seed(seed, first + j));
    }
  });
  rep.set("rng.reanchor_ns", log.ns_per_op("rng.reanchor"), "ns");

  // -- runtime: BatchScorer over the same programs, 1 and 2 workers -------
  const hmd::StochasticHmd detector(net, in.features, error_rate);
  std::vector<const trace::FeatureSet*> batch;
  std::size_t windows = 0;
  for (const trace::FeatureSet& program : in.programs) {
    batch.push_back(&program);
    windows += program.windows(in.features).size();
  }
  double rate[2] = {0.0, 0.0};
  for (std::size_t w = 1; w <= 2; ++w) {
    runtime::BatchScorer scorer(detector, runtime::RuntimeConfig{w, seed});
    const char* name = w == 1 ? "runtime.score_batch.w1" : "runtime.score_batch.w2";
    run_for(0.125 * budget_s, 1, 1, [&](std::size_t, std::size_t) {
      const ScopedSpan span(&log, name, windows);
      (void)scorer.score_batch(std::span<const trace::FeatureSet* const>(batch));
    });
    rate[w - 1] = 1e9 / log.ns_per_op(name);
  }
  rep.set("runtime.windows_per_s.w1", rate[0], "1/s");
  rep.set("runtime.parallel_eff", rate[1] / (2.0 * rate[0]), "share");
}

}  // namespace perfbench
