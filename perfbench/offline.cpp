// offline_sweep: the paper's figure path. An in-process
// runtime::BatchScorer (2 workers) scores every window of a fixed
// synthetic corpus (trace::Dataset at the figure benches' --quick scale)
// with the trained victim, at er = 0 and at er = 0.10; then detection
// rounds of a fixed program count run on a fixed schedule, each timed from
// the moment it was due.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "hmd/stochastic_hmd.hpp"
#include "nn/arithmetic.hpp"
#include "perfbench.hpp"
#include "runtime/batch_scorer.hpp"

namespace perfbench {
namespace {

constexpr int kSpareSetupEvery = 2;  ///< rounds between two spare set-ups
constexpr int kRounds = 20;
constexpr std::size_t kMalware = 300;  // the figure benches' --quick corpus
constexpr std::size_t kBenign = 60;
constexpr std::size_t kTraceLength = 16384;
constexpr double kOperatingEr = 0.10;
constexpr std::size_t kRoundPrograms = 16;
constexpr double kRoundPeriodMs = 4.0;  ///< one round due every period; also its limit

struct Sweep {
  double seconds = 0.0;
  std::uint64_t programs = 0;
  std::uint64_t windows = 0;
  std::vector<double> pass_s;  ///< duration of each whole-corpus pass
  faultsim::FaultStats faults;

  void merge(const Sweep& o) {
    seconds += o.seconds;
    programs += o.programs;
    windows += o.windows;
    pass_s.insert(pass_s.end(), o.pass_s.begin(), o.pass_s.end());
    faults.operations += o.faults.operations;
    faults.faults += o.faults.faults;
  }
};

faultsim::FaultStats delta(const faultsim::FaultStats& after, const faultsim::FaultStats& before) {
  faultsim::FaultStats d;
  d.operations = after.operations - before.operations;
  d.faults = after.faults - before.faults;
  return d;
}

Sweep sweep(runtime::BatchScorer& scorer, hmd::StochasticHmd& detector, double er,
            const std::vector<const trace::FeatureSet*>& batch, std::uint64_t windows_per_pass,
            double seconds, SpanLog* log) {
  detector.set_error_rate(er);
  const faultsim::FaultStats before = scorer.merged_stats();
  Sweep out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::nanoseconds(std::llround(seconds * 1e9));
  Clock::time_point pass_start = start;
  do {
    {
      const ScopedSpan span(log, "runtime.score_batch", windows_per_pass);
      (void)scorer.score_batch(std::span<const trace::FeatureSet* const>(batch));
    }
    const Clock::time_point now = Clock::now();
    out.pass_s.push_back(seconds_between(pass_start, now));
    pass_start = now;
    out.programs += batch.size();
    out.windows += windows_per_pass;
  } while (pass_start < end);
  out.seconds = seconds_between(start, Clock::now());
  out.faults = delta(scorer.merged_stats(), before);
  return out;
}

struct Rounds {
  std::uint64_t rounds = 0;
  std::uint64_t on_time = 0;
  double elapsed_s = 0.0;  ///< first due moment to the end of the last round
  Samples latency_ms;
  Samples lag_ms;

  void merge(const Rounds& o) {
    rounds += o.rounds;
    on_time += o.on_time;
    elapsed_s += o.elapsed_s;
    latency_ms.append(o.latency_ms);
    lag_ms.append(o.lag_ms);
  }
};

/// Open-loop detection rounds: round r is due at t0 + r * period and
/// scores kRoundPrograms consecutive programs (wrapping over the corpus).
Rounds rounds(runtime::BatchScorer& scorer, hmd::StochasticHmd& detector,
              const std::vector<const trace::FeatureSet*>& all, double seconds, SpanLog* log) {
  detector.set_error_rate(kOperatingEr);
  Rounds out;
  const auto n =
      static_cast<std::uint64_t>(std::max(1.0, std::floor(seconds * 1e3 / kRoundPeriodMs)));
  precise_sleeps();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  std::vector<const trace::FeatureSet*> round(kRoundPrograms);
  for (std::uint64_t r = 0; r < n; ++r) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(std::llround(static_cast<double>(r) * kRoundPeriodMs * 1e6));
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      if (due - now > kSpinBelow) std::this_thread::sleep_for(due - now - kSpinBelow);
    }
    out.lag_ms.add(static_cast<double>(ns_between(due, Clock::now())) / 1e6);
    for (std::size_t j = 0; j < kRoundPrograms; ++j) {
      round[j] = all[(r * kRoundPrograms + j) % all.size()];
    }
    {
      const ScopedSpan span(log, "runtime.score_batch.round", kRoundPrograms);
      (void)scorer.score_batch(std::span<const trace::FeatureSet* const>(round));
    }
    const double ms = static_cast<double>(ns_between(due, Clock::now())) / 1e6;
    out.latency_ms.add(ms);
    if (ms <= kRoundPeriodMs) ++out.on_time;
    ++out.rounds;
  }
  out.elapsed_s = seconds_between(t0, Clock::now());
  return out;
}

}  // namespace

Outcome run_offline(const RunOptions& opt) {
  Outcome out;
  Report& rep = out.report;
  const std::uint64_t scorer_seed = opt.seed * 0x9E3779B97F4A7C15ULL + 0xBA7C4ULL;

  // Set-up: corpus, victim, detector, scorer. The first serves the run;
  // spare ones between rounds are timed and torn down (as in served.cpp).
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> train_s;
  struct Setup {
    std::optional<Inputs> in;
    std::optional<hmd::StochasticHmd> detector;
    std::optional<runtime::BatchScorer> scorer;
  };
  const auto set_up = [&](Setup& into) {
    const Clock::time_point t0 = Clock::now();
    into.in.emplace(make_inputs(opt.seed, kMalware, kBenign, kTraceLength, 0));
    into.detector.emplace(into.in->victim, into.in->features, kOperatingEr);
    into.scorer.emplace(*into.detector, runtime::RuntimeConfig{kWorkers, scorer_seed});
    setup_s.push_back(seconds_between(t0, Clock::now()));
    build_s.push_back(into.in->corpus_build_s);
    train_s.push_back(into.in->train_s);
  };
  Setup run;
  set_up(run);
  Inputs* const in = &*run.in;
  hmd::StochasticHmd* const detector = &*run.detector;
  runtime::BatchScorer* const scorer = &*run.scorer;
  std::vector<const trace::FeatureSet*> all;
  std::uint64_t windows = 0;
  for (const trace::FeatureSet& program : in->programs) {
    all.push_back(&program);
    windows += program.windows(in->features).size();
  }

  // Warm-up pass at each operating point; the er = 0 pass doubles as the
  // exactness check against a per-window exact forward.
  detector->set_error_rate(0.0);
  const std::vector<std::vector<double>> er0_scores =
      scorer->score_batch(std::span<const trace::FeatureSet* const>(all));
  {
    nn::ExactContext exact;
    nn::ForwardScratch scratch;
    std::size_t inexact = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& program_windows = all[i]->windows(in->features);
      for (std::size_t w = 0; w < program_windows.size(); ++w) {
        const double want = in->victim.forward(program_windows[w], exact, scratch)[0];
        if (std::memcmp(&want, &er0_scores[i][w], sizeof(double)) != 0) ++inexact;
      }
    }
    out.check(inexact == 0, "BatchScorer at er 0: " + std::to_string(inexact) +
                                " windows differ from the exact forward");
  }
  detector->set_error_rate(kOperatingEr);
  (void)scorer->score_batch(std::span<const trace::FeatureSet* const>(all));

  // Interleaved rounds and medians, as in served.cpp: throughput over
  // whole-corpus passes; p50, SLO share and goodput over the rounds.
  const double slice = opt.seconds / kRounds;
  const Clock::time_point origin = Clock::now();
  SpanLog log(origin);
  SpanLog* const traced = opt.trace ? &log : nullptr;
  Sweep er0;
  Sweep er10;
  Rounds rr;
  std::vector<double> p50, slo, goodput, overhead;
  for (int r = 0; r < kRounds; ++r) {
    if (opt.trace) {
      const Sweep untraced =
          sweep(*scorer, *detector, kOperatingEr, all, windows, 0.3 * slice, nullptr);
      overhead.push_back(static_cast<double>(untraced.windows) / untraced.seconds);
    }
    const Sweep a = sweep(*scorer, *detector, 0.0, all, windows, 0.2 * slice, traced);
    const Sweep b = sweep(*scorer, *detector, kOperatingEr, all, windows, 0.3 * slice, traced);
    const Rounds c = rounds(*scorer, *detector, all, 0.5 * slice, traced);
    if (opt.trace) {
      overhead.back() = 1.0 - (static_cast<double>(b.windows) / b.seconds) / overhead.back();
    }
    p50.push_back(c.latency_ms.quantile(0.50));
    slo.push_back(static_cast<double>(c.on_time) / static_cast<double>(c.rounds));
    goodput.push_back(static_cast<double>(c.on_time * kRoundPrograms) / c.elapsed_s);
    er0.merge(a);
    er10.merge(b);
    rr.merge(c);
    if (r % kSpareSetupEvery == kSpareSetupEvery - 1) {
      Setup spare;
      set_up(spare);
    }
  }

  out.check(fault_rate_ok(er0.faults.faults, er0.faults.operations, 0.0),
            "sweep at er 0 injected faults");
  out.check(fault_rate_ok(er10.faults.faults, er10.faults.operations, kOperatingEr),
            "sweep at er 0.10: faults/operations outside the binomial bound");
  out.attempted = er0.programs + er10.programs + rr.rounds * kRoundPrograms;
  out.phases["sweep_er0"].sent = out.phases["sweep_er0"].scored = er0.programs;
  out.phases["sweep_er10"].sent = out.phases["sweep_er10"].scored = er10.programs;
  out.phases["rounds"].sent = out.phases["rounds"].scored = rr.rounds * kRoundPrograms;
  // Throughput per whole-corpus pass, median over passes.
  const double pass_windows = static_cast<double>(windows);
  const double er0_wps = pass_windows / median(er0.pass_s);
  const double er10_wps = pass_windows / median(er10.pass_s);

  std::fprintf(stderr,
               "[offline] %zu programs, %llu windows: er0 %.0f windows/s, er10 %.0f windows/s; "
               "%llu rounds of %zu programs every %.1f ms (%llu on time): pooled latency from due "
               "p50 %.3f p90 %.3f p99 %.3f ms; lag p99 %.3f ms\n",
               all.size(), static_cast<unsigned long long>(windows), er0_wps, er10_wps,
               static_cast<unsigned long long>(rr.rounds), kRoundPrograms, kRoundPeriodMs,
               static_cast<unsigned long long>(rr.on_time), rr.latency_ms.quantile(0.50),
               rr.latency_ms.quantile(0.90), rr.latency_ms.quantile(0.99),
               rr.lag_ms.quantile(0.99));

  print_setups(setup_s);
  if (!opt.trace) {
    rep.set("setup_s", median(setup_s), "s");
    rep.set("capacity_rps", static_cast<double>(all.size()) / median(er10.pass_s), "1/s");
    rep.set("windows_per_s.er0", er0_wps, "1/s");
    rep.set("windows_per_s.er10", er10_wps, "1/s");
    rep.set("p50_ms", median(p50), "ms");
    rep.set("slo_share", median(slo), "share");
    rep.set("goodput_rps", median(goodput), "1/s");
  } else {
    rep.set("trace.corpus_build_s", median(build_s), "s");
    rep.set("hmd.train_s", median(train_s), "s");
    rep.set("tracing.overhead_share", median(overhead), "share");
    SpanLog layer_log(origin);
    measure_layers(*in, kOperatingEr, scorer_seed, 0.3 * opt.seconds, layer_log, rep);
    // The served layers are off this workload's path; a short served probe
    // of the same programs (one program per request) measures them.
    const ServedSpec probe{0, kOperatingEr, 3000.0, 5.0, 0.0};
    SpanLog probe_log(origin);
    served_layer_probe(*in, probe, scorer_seed, 0.15 * opt.seconds, layer_log, probe_log, rep,
                       out);
    rep.set("faultsim.faults_per_req",
            static_cast<double>(er10.faults.faults) / static_cast<double>(er10.programs), "count");
    // This workload's own load generator is the round scheduler.
    rep.set("loadgen.lag_p99_ms", rr.lag_ms.quantile(0.99), "ms");
    set_tail(rr.latency_ms, rep);
    log.append(layer_log);
    log.append(probe_log);
    print_spans(log);
  }
  parity_gate(*in, opt.seed, socket_path("probe"), out);
  if (!opt.trace) rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
