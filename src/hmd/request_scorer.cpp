#include "hmd/request_scorer.hpp"

#include <stdexcept>

#include "nn/arithmetic.hpp"
#include "rng/splitmix64.hpp"

namespace shmd::hmd {

rng::Xoshiro256ss request_stream(std::uint64_t base_seed, std::uint64_t seq) noexcept {
  return rng::Xoshiro256ss(rng::stream_seed(base_seed, seq));
}

faultsim::FaultStats RequestScorer::score(const nn::Network& net,
                                          std::span<const std::vector<double>> windows,
                                          double error_rate,
                                          const faultsim::BitFaultDistribution& distribution,
                                          std::uint64_t base_seed, std::uint64_t seq,
                                          std::vector<double>& scores) {
  const std::size_t in_dim = net.input_dim();
  tile_.clear();
  for (const std::vector<double>& window : windows) {
    if (window.size() != in_dim) {
      throw std::invalid_argument("window width != network input width");
    }
    tile_.insert(tile_.end(), window.begin(), window.end());
  }
  if (injector_.error_rate() != error_rate) injector_.set_error_rate(error_rate);
  if (!(injector_.distribution() == distribution)) injector_.set_distribution(distribution);
  injector_.generator() = request_stream(base_seed, seq);
  injector_.reset_stats();
  nn::FaultyContext ctx(injector_);
  const std::span<const double> out = net.forward_batch(tile_, windows.size(), ctx, scratch_);
  const std::size_t out_dim = net.output_dim();
  scores.resize(windows.size());
  for (std::size_t r = 0; r < windows.size(); ++r) scores[r] = out[r * out_dim];
  return injector_.stats();
}

}  // namespace shmd::hmd
