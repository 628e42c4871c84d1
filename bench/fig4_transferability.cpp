// Figure 4 — "Transferability attack" success rate: evasive malware is
// crafted against each reverse-engineered proxy (MLP/LR/DT, trained on the
// victim-training or attacker-training fold) and shipped against the live
// victim. Success = the shipped sample evades the victim's detection.
#include <cstdio>
#include <map>
#include <tuple>

#include "common.hpp"

#include "attack/transferability.hpp"
#include "eval/metrics.hpp"
#include "hmd/space_exploration.hpp"
#include "runtime/batch_scorer.hpp"

namespace {

using namespace shmd;

int run(const bench::BenchConfig& cfg, double er) {
  const trace::Dataset ds = trace::Dataset::build(cfg.dataset);
  const trace::FeatureConfig fc = bench::victim_config(ds);

  // Adversarial transferability of individual crafted samples is a
  // high-variance quantity: one proxy instance can transfer twice as well
  // as another of equal fidelity. Aggregate over the 3-fold CV rotations
  // (fresh victim, proxy, and attack set per rotation), as the paper does.
  struct Cell {
    std::size_t evaded = 0;
    std::size_t tested = 0;
    std::size_t transferred = 0;
  };
  std::map<std::tuple<int, bool, bool>, Cell> cells;

  const std::string er_label = er <= 0.0 ? "auto" : util::Table::fmt(er, 2);
  std::printf("Fig. 4 — evasive-malware transferability success rate "
              "(er=%s, %zu malware per rotation, %d rotations)\n\n", er_label.c_str(),
              cfg.attack_samples, cfg.rotations);

  attack::ReverseEngineer re(ds);
  for (int rotation = 0; rotation < cfg.rotations; ++rotation) {
    const trace::FoldSplit folds = ds.folds(rotation);
    hmd::BaselineHmd baseline =
        hmd::make_baseline(ds, folds.victim_training, fc, cfg.train);
    double rotation_er = er;
    if (er <= 0.0) {
      // Defender-side space exploration (§VI): deepest er within a 2%
      // accuracy-loss budget, calibrated on the defender's own fold.
      const auto explored =
          hmd::explore_error_rate(ds, folds.victim_training, baseline.network(), fc);
      rotation_er = explored.error_rate;
      std::printf("rotation %d: explored er* = %.2f (accuracy %.1f%% -> %.1f%%)\n", rotation,
                  rotation_er, 100.0 * explored.baseline_accuracy,
                  100.0 * explored.selected_accuracy);
    }
    hmd::StochasticHmd stochastic(baseline.network(), fc, rotation_er);

    // Context line for the attack numbers below: the stochastic victim's
    // live accuracy on the testing fold, scored as one batch across the
    // runtime's workers (per-request fault streams: any worker count).
    {
      runtime::RuntimeConfig rt;
      rt.num_workers = cfg.workers;
      rt.seed = 0xF164ULL + static_cast<std::uint64_t>(rotation);
      runtime::BatchScorer scorer(stochastic, rt);
      std::vector<const trace::FeatureSet*> test_batch;
      for (std::size_t idx : folds.testing) test_batch.push_back(&ds.samples()[idx].features);
      const std::vector<bool> verdicts = scorer.detect_batch(test_batch);
      eval::ConfusionMatrix cm;
      for (std::size_t i = 0; i < verdicts.size(); ++i) {
        cm.add(ds.samples()[folds.testing[i]].malware(), verdicts[i]);
      }
      std::printf("rotation %d: stochastic victim live accuracy %.1f%% on %zu test programs "
                  "(er=%.2f, %zu workers)\n",
                  rotation, 100.0 * cm.accuracy(), test_batch.size(), rotation_er,
                  scorer.num_workers());
    }

    const std::vector<std::size_t> targets =
        bench::malware_subset(ds, folds, cfg.attack_samples);
    const attack::EvasionConfig evasion_base = bench::make_evasion_config(ds, folds);

    for (auto kind :
         {attack::ProxyKind::kMlp, attack::ProxyKind::kLr, attack::ProxyKind::kDt}) {
      for (const bool use_victim_data : {true, false}) {
        const auto& query_fold =
            use_victim_data ? folds.victim_training : folds.attacker_training;
        attack::ReverseEngineerConfig rc;
        rc.kind = kind;
        rc.proxy_configs = {fc};
        rc.seed = 0xA77AC4ULL + static_cast<std::uint64_t>(rotation);
        for (const bool stochastic_victim : {false, true}) {
          hmd::Detector& victim =
              stochastic_victim ? static_cast<hmd::Detector&>(stochastic)
                                : static_cast<hmd::Detector&>(baseline);
          const auto proxy = re.run(victim, query_fold, folds.testing, rc);
          attack::EvasionConfig ec = evasion_base;
          ec.craft_threshold = proxy.craft_threshold;
          const auto result = attack::TransferabilityEval(ds, ec)
                                  .run(victim, *proxy.proxy, targets, rc.proxy_configs);
          Cell& cell = cells[{static_cast<int>(kind), use_victim_data, stochastic_victim}];
          cell.evaded += result.proxy_evaded;
          cell.tested += result.malware_tested;
          cell.transferred +=
              static_cast<std::size_t>(result.success_rate() *
                                       static_cast<double>(result.proxy_evaded) + 0.5);
        }
      }
    }
  }

  util::Table table({"proxy", "attacker data", "victim", "proxy evaded", "success rate",
                     "detected"});
  for (auto kind : {attack::ProxyKind::kMlp, attack::ProxyKind::kLr, attack::ProxyKind::kDt}) {
    for (const bool use_victim_data : {true, false}) {
      for (const bool stochastic_victim : {false, true}) {
        const Cell& cell = cells[{static_cast<int>(kind), use_victim_data, stochastic_victim}];
        const double success =
            cell.evaded == 0 ? 0.0
                             : static_cast<double>(cell.transferred) /
                                   static_cast<double>(cell.evaded);
        table.add_row({std::string(attack::proxy_kind_name(kind)),
                       use_victim_data ? "victim training" : "attacker training",
                       stochastic_victim ? "Stochastic-HMD" : "baseline",
                       std::to_string(cell.evaded) + "/" + std::to_string(cell.tested),
                       util::Table::pct(success, 1),
                       util::Table::pct(cell.evaded == 0 ? 1.0 : 1.0 - success, 1)});
      }
    }
  }
  bench::emit(table, cfg);
  std::printf("\nPaper shape check: success collapses against the Stochastic-HMD "
              "(paper: MLP 84%%->5.9%%, LR 72%%->4.3%%, DT 33%%->6.2%%).\n"
              "Known deviation: our LR proxy fits the (more nonlinear) victim at only ~80%%\n"
              "agreement, so LR-guided evasion rarely transfers even to the baseline.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  shmd::util::CliParser cli;
  cli.add_flag("error-rate", "Stochastic-HMD error rate (0 = per-rotation space exploration)", "0");
  const auto cfg = shmd::bench::parse_bench_args(argc, argv, cli);
  if (!cfg) return 0;
  return run(*cfg, cli.get_double("error-rate"));
}
