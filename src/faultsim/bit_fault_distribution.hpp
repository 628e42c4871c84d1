// Distribution of fault *locations* (which output bit flips) for an
// undervolted multiplier, reproducing the shape of the paper's Figure 1.
//
// Empirical facts encoded here (paper §II, consistent with Plundervolt and
// the FPGA reduced-voltage study it cites):
//   * the sign bit never flips,
//   * the 8 least significant bits never flip,
//   * eligible middle/high bits flip with a unimodal, bump-shaped
//     probability profile (long carry chains fail first).
//
// The "measured" profile is a discretized Gaussian bump over the eligible
// bits; a "uniform" profile over the same support is provided as the
// ablation baseline (DESIGN.md choice #1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "faultsim/fixed_point.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::faultsim {

class BitFaultDistribution {
 public:
  static constexpr int kBits = 64;

  /// Fig.-1-shaped profile: Gaussian bump centered at `center_bit` with
  /// spread `sigma_bits`, restricted to eligible bits.
  [[nodiscard]] static BitFaultDistribution measured(double center_bit = 36.0,
                                                     double sigma_bits = 7.0);

  /// Ablation: uniform over all eligible bits.
  [[nodiscard]] static BitFaultDistribution uniform();

  /// Degenerate "stuck-at" profile: all mass on one bit. Models a
  /// *deterministic* approximate-computing fault (the paper's §III argues
  /// such deterministic noise is not a moving-target defense — the
  /// ablation benches demonstrate why).
  [[nodiscard]] static BitFaultDistribution stuck_at(int bit);

  /// Probability that a fault lands on `bit` (0 for protected bits).
  [[nodiscard]] double pmf(int bit) const;

  /// Sample a fault location. Binary search for the first CDF bin
  /// exceeding the draw — the identical u -> bit mapping as a linear
  /// first-`u < cdf` scan (plateaus over protected bits are skipped by
  /// both), at ~6 probes instead of ~40. Inline because it sits on the
  /// per-fault-site hot path of the skip-ahead dot kernel.
  [[nodiscard]] int sample(rng::Xoshiro256ss& gen) const {
    const double u = gen.uniform01();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return kBits - 2;  // unreachable given cdf_[63] == 1
    return static_cast<int>(it - cdf_.begin());
  }

  /// True when `bit` can ever flip (not the sign bit, not a low LSB).
  [[nodiscard]] static constexpr bool eligible(int bit) noexcept {
    return bit >= kProtectedLsbs && bit < kSignBit;
  }

  friend bool operator==(const BitFaultDistribution&, const BitFaultDistribution&) = default;

 private:
  BitFaultDistribution() = default;

  void build_cdf();

  std::array<double, kBits> pmf_{};
  std::array<double, kBits> cdf_{};
};

}  // namespace shmd::faultsim
