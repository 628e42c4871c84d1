#include <gtest/gtest.h>

#include <cmath>

#include "eval/metrics.hpp"
#include "hmd/builders.hpp"
#include "hmd/request_scorer.hpp"
#include "support/test_corpus.hpp"
#include "util/stats.hpp"

namespace shmd::hmd {
namespace {

using trace::FeatureConfig;
using trace::FeatureView;

/// Shared trained detectors (training once keeps the suite fast).
struct TrainedFixture {
  const trace::Dataset& ds = test::small_dataset();
  trace::FoldSplit folds = ds.folds(0);
  FeatureConfig fc{FeatureView::kInsnCategory, ds.config().periods[0]};
  BaselineHmd baseline;

  TrainedFixture()
      : baseline([&] {
          HmdTrainOptions opt;
          opt.train.epochs = 80;
          opt.train.l2 = 2e-3;  // soft scores even on the tiny test corpus
          return make_baseline(test::small_dataset(), test::small_dataset().folds(0).victim_training,
                               FeatureConfig{FeatureView::kInsnCategory,
                                             test::small_dataset().config().periods[0]},
                               opt);
        }()) {}

  static const TrainedFixture& instance() {
    static const TrainedFixture f;
    return f;
  }

  double accuracy(Detector& det) const {
    eval::ConfusionMatrix cm;
    for (std::size_t idx : folds.testing) {
      const auto& s = ds.samples()[idx];
      cm.add(s.malware(), det.detect(s.features));
    }
    return cm.accuracy();
  }
};

// ---------------------------------------------------------------- vote rule

TEST(FractionVote, MajorityAndThresholds) {
  const std::vector<double> scores{0.9, 0.9, 0.1, 0.1};
  EXPECT_FALSE(fraction_vote(scores, 0.5, 0.75));
  EXPECT_TRUE(fraction_vote(scores, 0.5, 0.5));
  EXPECT_TRUE(fraction_vote(scores, 0.5, 0.25));
}

TEST(FractionVote, EdgeCases) {
  EXPECT_THROW((void)fraction_vote({}, 0.5, 0.5), std::invalid_argument);
  EXPECT_THROW((void)fraction_vote({0.5}, 0.5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fraction_vote({0.5}, 0.5, 1.5), std::invalid_argument);
  EXPECT_TRUE(fraction_vote({0.5}, 0.5, 1.0));  // score == threshold counts
}

// ------------------------------------------------------------- baseline HMD

TEST(BaselineHmd, AchievesHighCleanAccuracy) {
  const auto& fx = TrainedFixture::instance();
  BaselineHmd det = fx.baseline;
  EXPECT_GT(fx.accuracy(det), 0.85);
}

TEST(BaselineHmd, IsDeterministic) {
  const auto& fx = TrainedFixture::instance();
  BaselineHmd det = fx.baseline;
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  EXPECT_EQ(det.window_scores(features), det.window_scores(features));
  EXPECT_EQ(det.window_scores(features), det.window_scores_nominal(features));
}

TEST(BaselineHmd, ProgramScoreIsMeanOfWindows) {
  const auto& fx = TrainedFixture::instance();
  BaselineHmd det = fx.baseline;
  const auto& features = fx.ds.samples()[fx.folds.testing[1]].features;
  const auto scores = det.window_scores(features);
  double mean = 0.0;
  for (double s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  EXPECT_NEAR(det.program_score(features), mean, 1e-12);
}

// ----------------------------------------------------------- stochastic HMD

TEST(StochasticHmd, ZeroErrorRateEqualsBaseline) {
  const auto& fx = TrainedFixture::instance();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  BaselineHmd base = fx.baseline;
  EXPECT_EQ(det.window_scores(features), base.window_scores(features));
}

TEST(StochasticHmd, KthCallScoresAsRequestKOfThePrimitive) {
  // The serial detector keys its noise exactly as every other scorer:
  // its k-th live call (window_scores and score_window share the count)
  // is request k of RequestScorer under the detector's noise seed.
  const auto& fx = TrainedFixture::instance();
  constexpr std::uint64_t kSeed = 0xABCDULL;
  const faultsim::BitFaultDistribution dist = faultsim::BitFaultDistribution::measured();
  const nn::Network& net = fx.baseline.network();
  StochasticHmd det(net, fx.fc, 0.3, dist, kSeed);
  RequestScorer reference;
  std::vector<double> want;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto& features = fx.ds.samples()[fx.folds.testing[k]].features;
    (void)reference.score(net, features.windows(fx.fc), 0.3, dist, kSeed, k, want);
    EXPECT_EQ(det.window_scores(features), want) << k;
  }
  const std::vector<std::vector<double>> one = {
      fx.ds.samples()[fx.folds.testing[0]].features.windows(fx.fc).front()};
  (void)reference.score(net, one, 0.3, dist, kSeed, 4, want);
  EXPECT_EQ(det.score_window(one.front()), want.front());
}

TEST(StochasticHmd, ScoresVaryAcrossRuns) {
  // The moving-target property: same program, different verdict scores.
  const auto& fx = TrainedFixture::instance();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.2);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  const auto s1 = det.window_scores(features);
  const auto s2 = det.window_scores(features);
  EXPECT_NE(s1, s2);
  // The nominal path stays clean and constant.
  EXPECT_EQ(det.window_scores_nominal(features), det.window_scores_nominal(features));
}

namespace {
/// Mean accuracy over several detection rounds: the 60-sample test fold
/// makes one stochastic round's accuracy +-2 samples noisy, so the Fig.
/// 2(a) shape tests average fresh fault noise instead of betting on a
/// single RNG realization.
double mean_accuracy(const TrainedFixture& fx, Detector& det, int rounds = 8) {
  double total = 0.0;
  for (int r = 0; r < rounds; ++r) total += fx.accuracy(det);
  return total / rounds;
}
}  // namespace

TEST(StochasticHmd, SmallErrorRateCostsLittleAccuracy) {
  // Fig. 2(a): small accuracy loss at er = 0.1 (the paper reports <2% on
  // the full corpus; the tiny test corpus gives ~3-4%).
  const auto& fx = TrainedFixture::instance();
  BaselineHmd base = fx.baseline;
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.1);
  const double base_acc = fx.accuracy(base);
  const double sto_acc = mean_accuracy(fx, det);
  EXPECT_GT(sto_acc, base_acc - 0.06);
}

TEST(StochasticHmd, AccuracyDegradesMonotonicallyOnAverage) {
  // Fig. 2(a) shape: low er barely hurts, er -> 1 collapses accuracy.
  const auto& fx = TrainedFixture::instance();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  det.set_error_rate(0.05);
  const double acc_low = mean_accuracy(fx, det);
  det.set_error_rate(1.0);
  const double acc_high = mean_accuracy(fx, det);
  EXPECT_GT(acc_low, acc_high + 0.08);
  EXPECT_GT(acc_high, 0.3);  // never collapses below random-ish
}

TEST(StochasticHmd, FaultStatsAccumulateDuringInference) {
  const auto& fx = TrainedFixture::instance();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.5);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  (void)det.window_scores(features);
  EXPECT_GT(det.fault_stats().operations, 0u);
  EXPECT_GT(det.fault_stats().faults, 0u);
  EXPECT_NEAR(det.fault_stats().fault_rate(), 0.5, 0.05);
}

TEST(StochasticHmd, VoltageDrivenModeUsesGuardAndRestoresRail) {
  const auto& fx = TrainedFixture::instance();
  volt::MsrInterface msr;
  volt::VoltageDomain domain(msr, 0, volt::VoltFaultModel(volt::DeviceProfile{}), 49.0);
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  const double offset = domain.model().offset_for_error_rate(0.1, 49.0);
  det.attach_domain(domain, offset);
  EXPECT_TRUE(det.voltage_driven());

  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  (void)det.window_scores(features);
  // Rail back at nominal after the detection burst (TEE exit semantics).
  EXPECT_NEAR(domain.offset_mv(), 0.0, 0.5);
  // The burst ran at the voltage-derived error rate (visible in the fault
  // statistics)...
  EXPECT_NEAR(det.fault_stats().fault_rate(), 0.1, 0.02);
  // ...and the configured direct-er rate is restored once it ends.
  EXPECT_DOUBLE_EQ(det.error_rate(), 0.0);
  det.detach_domain();
  EXPECT_FALSE(det.voltage_driven());
}

TEST(StochasticHmd, DetachDomainRestoresConfiguredErrorRate) {
  // Regression: scoring under an attached domain used to leave the last
  // domain-derived rate on the injector, so post-detach scoring silently
  // ran at the wrong (stale) operating point.
  const auto& fx = TrainedFixture::instance();
  volt::MsrInterface msr;
  volt::VoltageDomain domain(msr, 0, volt::VoltFaultModel(volt::DeviceProfile{}), 49.0);
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.05);
  const double offset = domain.model().offset_for_error_rate(0.4, 49.0);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;

  det.attach_domain(domain, offset);
  (void)det.window_scores(features);
  const faultsim::FaultStats domain_stats = det.fault_stats();
  // The burst applied the domain-derived rate, not the configured one.
  EXPECT_NEAR(domain_stats.fault_rate(), 0.4, 0.05);

  det.detach_domain();
  EXPECT_DOUBLE_EQ(det.error_rate(), 0.05);
  // Post-detach scoring runs at the configured rate again: the marginal
  // fault rate of the next burst drops back to ~0.05.
  (void)det.window_scores(features);
  const faultsim::FaultStats& after = det.fault_stats();
  const double marginal_rate =
      static_cast<double>(after.faults - domain_stats.faults) /
      static_cast<double>(after.operations - domain_stats.operations);
  EXPECT_NEAR(marginal_rate, 0.05, 0.03);

  // The single-window query primitive takes the same save/restore path.
  det.attach_domain(domain, offset);
  (void)det.score_window(features.windows(fx.fc).front());
  det.detach_domain();
  EXPECT_DOUBLE_EQ(det.error_rate(), 0.05);
}

TEST(StochasticHmd, VoltageDrivenUnderExclusiveControl) {
  const auto& fx = TrainedFixture::instance();
  volt::MsrInterface msr;
  volt::VoltageDomain domain(msr, 0, volt::VoltFaultModel(volt::DeviceProfile{}), 49.0);
  const std::uint64_t token = domain.acquire_exclusive();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  det.attach_domain(domain, -115.0, token);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  EXPECT_NO_THROW((void)det.window_scores(features));
  // Without the token the detection path is rejected by the rail.
  det.attach_domain(domain, -115.0);
  EXPECT_THROW((void)det.window_scores(features), volt::VoltageControlError);
}

TEST(StochasticHmd, ConfidenceSpreadGrowsWithErrorRate) {
  // Fig. 2(b): higher er → wider score distribution. Measured per window:
  // repeat the same inference and track the spread of its score.
  const auto& fx = TrainedFixture::instance();
  StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  const auto spread = [&](double er) {
    det.set_error_rate(er);
    const auto& s = fx.ds.samples()[fx.folds.testing[0]];
    const std::size_t n_windows = det.window_scores_nominal(s.features).size();
    std::vector<util::RunningStats> per_window(n_windows);
    for (int rep = 0; rep < 12; ++rep) {
      const auto scores = det.window_scores(s.features);
      for (std::size_t w = 0; w < n_windows; ++w) per_window[w].add(scores[w]);
    }
    double mean_spread = 0.0;
    for (const auto& rs : per_window) mean_spread += rs.stddev();
    return mean_spread / static_cast<double>(n_windows);
  };
  const double s01 = spread(0.1);
  const double s05 = spread(0.5);
  EXPECT_DOUBLE_EQ(spread(0.0), 0.0);
  EXPECT_GT(s05, s01);
  EXPECT_GT(s01, 0.0);
}

// --------------------------------------------------------------------- RHMD

TEST(Rhmd, ConstructionsHaveExpectedBaseCounts) {
  EXPECT_EQ(rhmd_2f(2048).configs.size(), 2u);
  EXPECT_EQ(rhmd_3f(2048).configs.size(), 3u);
  EXPECT_EQ(rhmd_2f2p(2048, 4096).configs.size(), 4u);
  EXPECT_EQ(rhmd_3f2p(2048, 4096).configs.size(), 6u);
}

TEST(Rhmd, RequiresNestingPeriods) {
  const auto& fx = TrainedFixture::instance();
  std::vector<Rhmd::Base> bases;
  bases.push_back(Rhmd::Base{FeatureConfig{FeatureView::kInsnCategory, 2048},
                             fx.baseline.network()});
  bases.push_back(Rhmd::Base{FeatureConfig{FeatureView::kInsnCategory, 3000},
                             fx.baseline.network()});
  EXPECT_THROW(Rhmd("bad", std::move(bases)), std::invalid_argument);
  EXPECT_THROW(Rhmd("empty", {}), std::invalid_argument);
}

TEST(Rhmd, SwitchingMakesScoresStochastic) {
  const auto& fx = TrainedFixture::instance();
  HmdTrainOptions opt;
  opt.train.epochs = 60;
  Rhmd det = make_rhmd(fx.ds, fx.folds.victim_training,
                       rhmd_2f(fx.ds.config().periods[0]), opt);
  EXPECT_EQ(det.n_base_detectors(), 2u);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  // Over several runs, the random selection must produce at least two
  // distinct score vectors.
  const auto first = det.window_scores(features);
  bool differs = false;
  for (int i = 0; i < 8 && !differs; ++i) differs = det.window_scores(features) != first;
  EXPECT_TRUE(differs);
}

TEST(Rhmd, NominalScoresAreEnsembleAverageAndStable) {
  const auto& fx = TrainedFixture::instance();
  HmdTrainOptions opt;
  opt.train.epochs = 60;
  Rhmd det = make_rhmd(fx.ds, fx.folds.victim_training,
                       rhmd_2f(fx.ds.config().periods[0]), opt);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  EXPECT_EQ(det.window_scores_nominal(features), det.window_scores_nominal(features));
}

TEST(Rhmd, TwoPeriodConstructionUsesLargestEpoch) {
  const auto& fx = TrainedFixture::instance();
  HmdTrainOptions opt;
  opt.train.epochs = 40;
  const auto periods = fx.ds.config().periods;
  Rhmd det = make_rhmd(fx.ds, fx.folds.victim_training, rhmd_2f2p(periods[0], periods[1]), opt);
  EXPECT_EQ(det.epoch_period(), periods[1]);
  const auto& features = fx.ds.samples()[fx.folds.testing[0]].features;
  EXPECT_EQ(det.window_scores(features).size(), fx.ds.config().trace_length / periods[1]);
}

TEST(Rhmd, ReasonableAccuracyAcrossConstructions) {
  // Fig. 6: all constructions stay within a few points of the baseline.
  const auto& fx = TrainedFixture::instance();
  HmdTrainOptions opt;
  opt.train.epochs = 60;
  const auto periods = fx.ds.config().periods;
  for (const auto& construction :
       {rhmd_2f(periods[0]), rhmd_3f(periods[0]), rhmd_2f2p(periods[0], periods[1])}) {
    Rhmd det = make_rhmd(fx.ds, fx.folds.victim_training, construction, opt);
    EXPECT_GT(fx.accuracy(det), 0.75) << construction.name;
  }
}

}  // namespace
}  // namespace shmd::hmd
