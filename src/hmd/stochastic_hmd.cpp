#include "hmd/stochastic_hmd.hpp"

namespace shmd::hmd {

StochasticHmd::StochasticHmd(nn::Network net, trace::FeatureConfig config, double error_rate,
                             faultsim::BitFaultDistribution distribution,
                             std::uint64_t noise_seed)
    : net_(std::move(net)),
      config_(config),
      error_rate_(faultsim::checked_error_rate(error_rate)),
      distribution_(distribution),
      noise_seed_(noise_seed) {}

void StochasticHmd::attach_domain(volt::VoltageDomain& domain, double offset_mv,
                                  std::optional<std::uint64_t> token) {
  domain_ = &domain;
  offset_mv_ = offset_mv;
  token_ = token;
}

void StochasticHmd::detach_domain() noexcept {
  domain_ = nullptr;
  offset_mv_ = 0.0;
  token_.reset();
}

void StochasticHmd::set_error_rate(double er) { error_rate_ = faultsim::checked_error_rate(er); }

void StochasticHmd::score(std::uint64_t seq, std::span<const std::vector<double>> windows,
                          std::vector<double>& scores) {
  double er = error_rate_;
  // Deployment path: undervolt for exactly the duration of this detection
  // burst (TEE enter/exit semantics), at the error rate the physical
  // operating point yields; the guard restores nominal voltage on return.
  std::optional<volt::UndervoltGuard> guard;
  if (domain_ != nullptr) {
    guard.emplace(*domain_, offset_mv_, token_);
    er = domain_->error_rate();
  }
  stats_.merge(scorer_.score(net_, windows, er, distribution_, noise_seed_, seq, scores));
}

std::vector<double> StochasticHmd::window_scores(const trace::FeatureSet& features) {
  // The seq is spent before anything can throw (a feature set without
  // this detector's view), as a failed request's is in the service.
  const std::uint64_t seq = next_seq_++;
  std::vector<double> scores;
  score(seq, features.windows(config_), scores);
  return scores;
}

double StochasticHmd::score_window(std::span<const double> window) {
  window_.front().assign(window.begin(), window.end());
  score(next_seq_++, window_, window_score_);
  return window_score_.front();
}

std::vector<double> StochasticHmd::window_scores_nominal(
    const trace::FeatureSet& features) const {
  std::vector<double> scores;
  for (const std::vector<double>& window : features.windows(config_)) {
    scores.push_back(net_.forward(window)[0]);
  }
  return scores;
}

}  // namespace shmd::hmd
