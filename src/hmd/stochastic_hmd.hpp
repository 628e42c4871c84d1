// StochasticHmd — the paper's contribution.
//
// The same trained network as the baseline HMD (no retraining, no model
// changes), but inference runs on an undervolted core: every MAC product
// passes through the stochastic fault injector, making the decision
// boundary time-variant — a moving-target defense implemented purely in
// the supply voltage.
//
// Two operating modes:
//   * direct error rate  — the paper's space-exploration knob (§VI): er is
//     set explicitly on the injector;
//   * voltage-driven     — the deployment path (§III): the detector is
//     bound to a per-core VoltageDomain under exclusive (trusted) control;
//     each detection enters an RAII undervolt window at the calibrated
//     offset, derives er from the domain's fault model at the current
//     temperature, and restores nominal voltage afterwards (the TEE
//     enter/exit pattern of §IX).
//
// Every live score goes through the shared RequestScorer primitive: the
// k-th scoring call (window_scores or score_window, counted together from
// 0) is request k under `noise_seed`, so it draws exactly the noise a
// BatchScorer or ScoringService seeded the same way gives its k-th request.
#pragma once

#include <optional>

#include "faultsim/fault_injector.hpp"
#include "hmd/detector.hpp"
#include "hmd/request_scorer.hpp"
#include "nn/network.hpp"
#include "volt/voltage_domain.hpp"

namespace shmd::hmd {

class StochasticHmd final : public Detector {
 public:
  /// Direct-er mode.
  StochasticHmd(nn::Network net, trace::FeatureConfig config, double error_rate,
                faultsim::BitFaultDistribution distribution =
                    faultsim::BitFaultDistribution::measured(),
                std::uint64_t noise_seed = 0x570C4ULL);

  /// Bind to a voltage domain: subsequent detections run inside an
  /// UndervoltGuard at `offset_mv` and derive the error rate from the
  /// domain's fault model. `token` is the exclusive-control token if the
  /// rail is claimed (§III Trusted control).
  void attach_domain(volt::VoltageDomain& domain, double offset_mv,
                     std::optional<std::uint64_t> token = std::nullopt);
  void detach_domain() noexcept;
  [[nodiscard]] bool voltage_driven() const noexcept { return domain_ != nullptr; }

  /// Space-exploration knob (only meaningful in direct-er mode).
  void set_error_rate(double er);
  [[nodiscard]] double error_rate() const noexcept { return error_rate_; }

  [[nodiscard]] std::vector<double> window_scores(const trace::FeatureSet& features) override;

  /// One LIVE score for a single feature window — the query primitive a
  /// white-box attacker gets (fresh fault noise per call; enters the
  /// undervolt window when voltage-driven).
  [[nodiscard]] double score_window(std::span<const double> window);
  [[nodiscard]] std::vector<double> window_scores_nominal(
      const trace::FeatureSet& features) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "stochastic-hmd"; }

  [[nodiscard]] const nn::Network& network() const noexcept { return net_; }
  [[nodiscard]] trace::FeatureConfig feature_config() const noexcept { return config_; }
  /// Fault statistics accumulated over every live score so far.
  [[nodiscard]] const faultsim::FaultStats& fault_stats() const noexcept { return stats_; }
  /// Bit-location distribution of the injected faults.
  [[nodiscard]] const faultsim::BitFaultDistribution& fault_distribution() const noexcept {
    return distribution_;
  }

 private:
  /// Score `windows` as request `seq`: at the configured error rate, or
  /// inside an undervolt window at the domain-derived one.
  void score(std::uint64_t seq, std::span<const std::vector<double>> windows,
             std::vector<double>& scores);

  nn::Network net_;
  trace::FeatureConfig config_;
  double error_rate_;
  faultsim::BitFaultDistribution distribution_;
  std::uint64_t noise_seed_;
  std::uint64_t next_seq_ = 0;
  RequestScorer scorer_;
  faultsim::FaultStats stats_;
  std::vector<std::vector<double>> window_{1};  ///< score_window's one-window request
  std::vector<double> window_score_;
  volt::VoltageDomain* domain_ = nullptr;
  double offset_mv_ = 0.0;
  std::optional<std::uint64_t> token_;
};

}  // namespace shmd::hmd
