// RHMD — the state-of-the-art randomization baseline (Khasawneh et al.,
// MICRO'17) the paper compares against in §VII.C/§VIII.
//
// An RHMD keeps several *diverse* base detectors resident (trained on
// different feature vectors and/or detection periods) and, at every
// decision epoch, picks one uniformly at random. The paper evaluates four
// constructions: RHMD-2F, RHMD-3F (two/three feature vectors), and
// RHMD-2F2P, RHMD-3F2P (the same crossed with two detection periods).
//
// Epoch handling: the decision epoch is the construction's largest period;
// a selected base detector whose period is shorter scores all of its
// windows inside the epoch and averages them. (Periods must nest, which
// the provided constructions satisfy.)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hmd/detector.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::hmd {

/// Which base detectors an RHMD construction trains.
struct RhmdConstruction {
  std::string name;
  std::vector<trace::FeatureConfig> configs;
};

/// The paper's four constructions (§VII.C), parameterized by the dataset's
/// two detection periods.
[[nodiscard]] RhmdConstruction rhmd_2f(std::size_t period);
[[nodiscard]] RhmdConstruction rhmd_3f(std::size_t period);
[[nodiscard]] RhmdConstruction rhmd_2f2p(std::size_t period_a, std::size_t period_b);
[[nodiscard]] RhmdConstruction rhmd_3f2p(std::size_t period_a, std::size_t period_b);

class Rhmd final : public Detector {
 public:
  struct Base {
    trace::FeatureConfig config;
    nn::Network net;
  };

  Rhmd(std::string name, std::vector<Base> bases, std::uint64_t switch_seed = 0x124D5ULL);

  /// Live scores; the k-th call (from 0) switches epochs on
  /// request_stream(switch_seed, k).
  [[nodiscard]] std::vector<double> window_scores(const trace::FeatureSet& features) override;
  /// Live scores with the epoch switches drawn from `switch_gen` — const,
  /// so one detector can serve concurrent requests (RhmdBatchScorer).
  [[nodiscard]] std::vector<double> window_scores(const trace::FeatureSet& features,
                                                  rng::Xoshiro256ss& switch_gen) const;
  [[nodiscard]] std::vector<double> window_scores_nominal(
      const trace::FeatureSet& features) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] std::size_t n_base_detectors() const noexcept { return bases_.size(); }
  [[nodiscard]] const Base& base(std::size_t i) const { return bases_.at(i); }
  [[nodiscard]] std::size_t epoch_period() const noexcept { return epoch_period_; }
  [[nodiscard]] std::uint64_t switch_seed() const noexcept { return switch_seed_; }

 private:
  /// Score of base `b` over epoch `epoch` (averaging nested windows).
  [[nodiscard]] double base_epoch_score(const Base& b, const trace::FeatureSet& features,
                                        std::size_t epoch) const;

  std::string name_;
  std::vector<Base> bases_;
  std::size_t epoch_period_ = 0;
  std::uint64_t switch_seed_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace shmd::hmd
