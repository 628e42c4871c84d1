// Figure 2(a) — Space exploration: Stochastic-HMD accuracy, FPR, and FNR
// versus the error rate er in {0, 0.1, ..., 1}, with mean and standard
// deviation over repeated runs and 3-fold cross-validation (the paper
// repeats each experiment 50 times; --repeats / --paper-scale control it).
//
// The er x repeats x folds sweep runs through the batch inference runtime:
// each rotation's testing fold is scored as one batch across --workers
// threads. Every program draws its fault noise from (seed, request index),
// so the printed sweep is the same for any --workers.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "eval/metrics.hpp"
#include "runtime/batch_scorer.hpp"
#include "util/stats.hpp"

namespace {

using namespace shmd;

int run(const bench::BenchConfig& cfg) {
  const trace::Dataset ds = trace::Dataset::build(cfg.dataset);
  const trace::FeatureConfig fc = bench::victim_config(ds);

  std::printf("Fig. 2(a) — accuracy / FPR / FNR vs error rate "
              "(%d-fold rotations x %d repeats, corpus %zu/%zu)\n\n",
              cfg.rotations, cfg.repeats, cfg.dataset.corpus.n_malware,
              cfg.dataset.corpus.n_benign);

  // One trained detector per CV rotation; the error-rate sweep reuses it
  // (the defense never retrains — §III). Each rotation also gets a batch
  // scorer over its testing fold and the truth labels for that fold.
  std::vector<trace::FoldSplit> fold_splits;
  std::vector<hmd::StochasticHmd> detectors;
  for (int rotation = 0; rotation < cfg.rotations; ++rotation) {
    fold_splits.push_back(ds.folds(rotation));
    detectors.push_back(hmd::make_stochastic(ds, fold_splits.back().victim_training, fc, 0.0,
                                             cfg.train));
  }
  std::vector<std::unique_ptr<runtime::BatchScorer>> scorers;
  std::vector<std::vector<const trace::FeatureSet*>> batches;
  std::vector<std::vector<bool>> truths;
  for (int rotation = 0; rotation < cfg.rotations; ++rotation) {
    runtime::RuntimeConfig rt;
    rt.num_workers = cfg.workers;
    rt.seed = 0xF16A2ULL + static_cast<std::uint64_t>(rotation);
    scorers.push_back(std::make_unique<runtime::BatchScorer>(
        detectors[static_cast<std::size_t>(rotation)], rt));
    std::vector<const trace::FeatureSet*> batch;
    std::vector<bool> truth;
    for (std::size_t idx : fold_splits[static_cast<std::size_t>(rotation)].testing) {
      batch.push_back(&ds.samples()[idx].features);
      truth.push_back(ds.samples()[idx].malware());
    }
    batches.push_back(std::move(batch));
    truths.push_back(std::move(truth));
  }
  std::printf("batch runtime: %zu workers per rotation\n\n", scorers.front()->num_workers());

  util::Table table({"er", "accuracy", "acc std", "FPR", "FNR", "accuracy bar"});
  for (double er = 0.0; er <= 1.0001; er += 0.1) {
    util::RunningStats acc_stats;
    util::RunningStats fpr_stats;
    util::RunningStats fnr_stats;
    for (int rotation = 0; rotation < cfg.rotations; ++rotation) {
      const auto r = static_cast<std::size_t>(rotation);
      detectors[r].set_error_rate(er);
      for (int rep = 0; rep < cfg.repeats; ++rep) {
        const std::vector<bool> verdicts = scorers[r]->detect_batch(batches[r]);
        eval::ConfusionMatrix cm;
        for (std::size_t i = 0; i < verdicts.size(); ++i) cm.add(truths[r][i], verdicts[i]);
        acc_stats.add(cm.accuracy());
        fpr_stats.add(cm.fpr());
        fnr_stats.add(cm.fnr());
      }
    }
    table.add_row({util::Table::fmt(er, 1), util::Table::pct(acc_stats.mean(), 2),
                   util::Table::fmt(acc_stats.stddev(), 4),
                   util::Table::pct(fpr_stats.mean(), 2),
                   util::Table::pct(fnr_stats.mean(), 2),
                   util::ascii_bar(acc_stats.mean(), 1.0, 30)});
  }
  bench::emit(table, cfg);
  std::printf("\nPaper shape check: <2%% accuracy loss at er=0.1; degradation stays mild\n"
              "until er~0.2-0.3 and then diverges toward er=1 (never below random).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  shmd::util::CliParser cli;
  const auto cfg = shmd::bench::parse_bench_args(argc, argv, cli);
  if (!cfg) return 0;
  return run(*cfg);
}
