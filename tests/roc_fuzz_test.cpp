#include <gtest/gtest.h>

#include <sstream>

#include "eval/dataset_io.hpp"
#include "eval/roc.hpp"
#include "hmd/builders.hpp"
#include "hmd/deployment.hpp"
#include "nn/fann_io.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/test_corpus.hpp"

namespace shmd {
namespace {

// --------------------------------------------------------------------- ROC

TEST(Roc, PerfectSeparationGivesAucOne) {
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 20; ++i) samples.push_back({0.9 + 0.001 * i, true});
  for (int i = 0; i < 20; ++i) samples.push_back({0.1 + 0.001 * i, false});
  EXPECT_DOUBLE_EQ(eval::auc(samples), 1.0);
}

TEST(Roc, ReversedSeparationGivesAucZero) {
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 10; ++i) samples.push_back({0.1, true});
  for (int i = 0; i < 10; ++i) samples.push_back({0.9, false});
  EXPECT_NEAR(eval::auc(samples), 0.0, 1e-12);
}

TEST(Roc, RandomScoresGiveChanceAuc) {
  rng::Xoshiro256ss gen(7);
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back({gen.uniform01(), i % 2 == 0});
  EXPECT_NEAR(eval::auc(samples), 0.5, 0.03);
}

TEST(Roc, AucEqualsWilcoxonStatistic) {
  // AUC must equal P(score_pos > score_neg) + 0.5 P(equal): check against
  // a brute-force pairwise count on a small mixed sample.
  rng::Xoshiro256ss gen(11);
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 60; ++i) {
    const bool positive = gen.bernoulli(0.4);
    const double base = positive ? 0.6 : 0.4;
    samples.push_back({base + 0.3 * gen.gaussian(), positive});
  }
  double pairs = 0.0;
  double wins = 0.0;
  for (const auto& p : samples) {
    if (!p.positive) continue;
    for (const auto& n : samples) {
      if (n.positive) continue;
      pairs += 1.0;
      if (p.score > n.score) wins += 1.0;
      else if (p.score == n.score) wins += 0.5;
    }
  }
  EXPECT_NEAR(eval::auc(samples), wins / pairs, 1e-9);
}

TEST(Roc, CurveEndpointsAndMonotonicity) {
  rng::Xoshiro256ss gen(13);
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 200; ++i) samples.push_back({gen.uniform01(), gen.bernoulli(0.5)});
  const auto curve = eval::roc_curve(samples);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 0.0);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].tpr, curve[i - 1].tpr + 1e-12);
    EXPECT_LE(curve[i].fpr, curve[i - 1].fpr + 1e-12);
  }
}

TEST(Roc, SingleClassRejected) {
  std::vector<eval::ScoredSample> all_positive{{0.5, true}, {0.6, true}};
  EXPECT_THROW((void)eval::roc_curve(all_positive), std::invalid_argument);
}

TEST(Roc, YoudenPicksTheSeparatingThreshold) {
  std::vector<eval::ScoredSample> samples;
  for (int i = 0; i < 50; ++i) samples.push_back({0.8, true});
  for (int i = 0; i < 50; ++i) samples.push_back({0.2, false});
  const auto curve = eval::roc_curve(samples);
  const auto best = eval::best_youden(curve);
  EXPECT_DOUBLE_EQ(best.tpr, 1.0);
  EXPECT_DOUBLE_EQ(best.fpr, 0.0);
}

TEST(Roc, StochasticNoiseCostsRankingQualityGracefully) {
  // The undervolted detector's AUC at er=0.1 must stay close to the
  // baseline's; at er=1.0 it must sit clearly lower but above chance.
  // Each AUC is the mean over kRounds detection rounds: one round's AUC
  // over this small testing fold spreads by about ±0.09 at er=1.0, so a
  // single round would test the noise draw rather than the detector.
  constexpr int kRounds = 8;
  const trace::Dataset& ds = test::small_dataset();
  const trace::FoldSplit folds = ds.folds(0);
  const trace::FeatureConfig fc{trace::FeatureView::kInsnCategory, ds.config().periods[0]};
  hmd::HmdTrainOptions opt;
  opt.train.epochs = 60;
  hmd::BaselineHmd baseline = hmd::make_baseline(ds, folds.victim_training, fc, opt);
  hmd::StochasticHmd stochastic(baseline.network(), fc, 0.0);

  const auto auc_at = [&](double er) {
    stochastic.set_error_rate(er);
    double total = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<eval::ScoredSample> scored;
      for (std::size_t idx : folds.testing) {
        const auto& s = ds.samples()[idx];
        scored.push_back({stochastic.program_score(s.features), s.malware()});
      }
      total += eval::auc(scored);
    }
    return total / kRounds;
  };

  const double clean = auc_at(0.0);
  const double mild = auc_at(0.1);
  const double extreme = auc_at(1.0);
  EXPECT_GT(clean, 0.9);
  EXPECT_GT(mild, clean - 0.06);
  EXPECT_LT(extreme, clean);
  EXPECT_GT(extreme, 0.5);  // above chance even at er = 1
}

// ------------------------------------------------------- parser robustness

/// Mutating serialized artifacts must produce exceptions, never crashes or
/// silently-wrong objects that violate basic invariants.
template <typename LoadFn>
void fuzz_text_format(const std::string& good, LoadFn&& load, std::uint64_t seed) {
  rng::Xoshiro256ss gen(seed);
  int parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = good;
    const int op = static_cast<int>(gen.below(3));
    if (op == 0 && mutated.size() > 2) {
      // Truncate at a random point.
      mutated.resize(gen.below(mutated.size()));
    } else if (op == 1) {
      // Flip a random byte to a random printable character.
      mutated[gen.below(mutated.size())] =
          static_cast<char>('!' + gen.below(93));
    } else {
      // Duplicate a random chunk in place.
      const std::size_t pos = gen.below(mutated.size());
      const std::size_t len = std::min<std::size_t>(16, mutated.size() - pos);
      mutated.insert(pos, mutated.substr(pos, len));
    }
    std::istringstream is(mutated);
    try {
      load(is);
      ++parsed_ok;  // mutation happened to stay valid — acceptable
    } catch (const std::exception&) {
      // expected for most mutations
    }
  }
  // A majority of random mutations must be rejected (sanity that the
  // parser actually validates rather than accepting garbage).
  EXPECT_LT(parsed_ok, 200);
}

TEST(ParserFuzz, NetworkNativeFormat) {
  const std::vector<std::size_t> topo{4, 5, 1};
  nn::Network net(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 3);
  std::stringstream ss;
  net.save(ss);
  fuzz_text_format(ss.str(), [](std::istream& is) { (void)nn::Network::load(is); }, 101);
}

TEST(ParserFuzz, FannFormat) {
  const std::vector<std::size_t> topo{4, 5, 1};
  nn::Network net(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 3);
  std::stringstream ss;
  nn::save_fann(net, ss);
  fuzz_text_format(ss.str(), [](std::istream& is) { (void)nn::load_fann(is); }, 202);
}

TEST(ParserFuzz, DeploymentBundle) {
  const std::vector<std::size_t> topo{16, 4, 1};
  nn::Network net(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 3);
  hmd::DeploymentBundle bundle{net,
                               {trace::FeatureView::kInsnCategory, 2048},
                               0.1,
                               {{40.0, -120.0}, {60.0, -110.0}}};
  std::stringstream ss;
  hmd::save_deployment(bundle, ss);
  fuzz_text_format(ss.str(), [](std::istream& is) { (void)hmd::load_deployment(is); }, 303);
}

TEST(ParserFuzz, WindowCsv) {
  const trace::Dataset& ds = test::small_dataset();
  const trace::FeatureConfig fc{trace::FeatureView::kInsnCategory, ds.config().periods[0]};
  const std::vector<std::size_t> indices{0, 1};
  std::stringstream ss;
  eval::export_windows_csv(ds, indices, fc, ss);
  fuzz_text_format(ss.str(), [](std::istream& is) { (void)eval::import_windows_csv(is); },
                   404);
}

}  // namespace
}  // namespace shmd
