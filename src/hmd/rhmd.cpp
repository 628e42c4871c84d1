#include "hmd/rhmd.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hmd/request_scorer.hpp"

namespace shmd::hmd {

namespace {
using trace::FeatureConfig;
using trace::FeatureView;
}  // namespace

RhmdConstruction rhmd_2f(std::size_t period) {
  return {"rhmd-2f",
          {FeatureConfig{FeatureView::kInsnCategory, period},
           FeatureConfig{FeatureView::kMemory, period}}};
}

RhmdConstruction rhmd_3f(std::size_t period) {
  return {"rhmd-3f",
          {FeatureConfig{FeatureView::kInsnCategory, period},
           FeatureConfig{FeatureView::kMemory, period},
           FeatureConfig{FeatureView::kControlFlow, period}}};
}

RhmdConstruction rhmd_2f2p(std::size_t period_a, std::size_t period_b) {
  return {"rhmd-2f2p",
          {FeatureConfig{FeatureView::kInsnCategory, period_a},
           FeatureConfig{FeatureView::kMemory, period_a},
           FeatureConfig{FeatureView::kInsnCategory, period_b},
           FeatureConfig{FeatureView::kMemory, period_b}}};
}

RhmdConstruction rhmd_3f2p(std::size_t period_a, std::size_t period_b) {
  return {"rhmd-3f2p",
          {FeatureConfig{FeatureView::kInsnCategory, period_a},
           FeatureConfig{FeatureView::kMemory, period_a},
           FeatureConfig{FeatureView::kControlFlow, period_a},
           FeatureConfig{FeatureView::kInsnCategory, period_b},
           FeatureConfig{FeatureView::kMemory, period_b},
           FeatureConfig{FeatureView::kControlFlow, period_b}}};
}

Rhmd::Rhmd(std::string name, std::vector<Base> bases, std::uint64_t switch_seed)
    : name_(std::move(name)), bases_(std::move(bases)), switch_seed_(switch_seed) {
  if (bases_.empty()) throw std::invalid_argument("Rhmd: need >= 1 base detector");
  for (const Base& b : bases_) epoch_period_ = std::max(epoch_period_, b.config.period);
  for (const Base& b : bases_) {
    if (epoch_period_ % b.config.period != 0) {
      throw std::invalid_argument("Rhmd: base periods must nest within the largest period");
    }
  }
}

double Rhmd::base_epoch_score(const Base& b, const trace::FeatureSet& features,
                              std::size_t epoch) const {
  const auto& windows = features.windows(b.config);
  const std::size_t per_epoch = epoch_period_ / b.config.period;
  const std::size_t first = epoch * per_epoch;
  if (first + per_epoch > windows.size()) {
    throw std::out_of_range("Rhmd: epoch outside available windows");
  }
  double sum = 0.0;
  for (std::size_t k = 0; k < per_epoch; ++k) {
    sum += b.net.forward(windows[first + k])[0];
  }
  return sum / static_cast<double>(per_epoch);
}

std::vector<double> Rhmd::window_scores(const trace::FeatureSet& features) {
  rng::Xoshiro256ss switch_gen = request_stream(switch_seed_, next_seq_++);
  return window_scores(features, switch_gen);
}

std::vector<double> Rhmd::window_scores(const trace::FeatureSet& features,
                                        rng::Xoshiro256ss& switch_gen) const {
  // Epoch count: limited by the base with the fewest nested windows.
  std::size_t epochs = std::numeric_limits<std::size_t>::max();
  for (const Base& b : bases_) {
    const std::size_t per_epoch = epoch_period_ / b.config.period;
    epochs = std::min(epochs, features.windows(b.config).size() / per_epoch);
  }
  std::vector<double> scores;
  scores.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const std::size_t pick = switch_gen.below(bases_.size());
    scores.push_back(base_epoch_score(bases_[pick], features, e));
  }
  return scores;
}

std::vector<double> Rhmd::window_scores_nominal(const trace::FeatureSet& features) const {
  std::size_t epochs = std::numeric_limits<std::size_t>::max();
  for (const Base& b : bases_) {
    const std::size_t per_epoch = epoch_period_ / b.config.period;
    epochs = std::min(epochs, features.windows(b.config).size() / per_epoch);
  }
  std::vector<double> scores;
  scores.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    double sum = 0.0;
    for (const Base& b : bases_) sum += base_epoch_score(b, features, e);
    scores.push_back(sum / static_cast<double>(bases_.size()));
  }
  return scores;
}

}  // namespace shmd::hmd
