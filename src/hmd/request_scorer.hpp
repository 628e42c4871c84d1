// RequestScorer: the one scoring primitive every stochastic scorer shares.
//
// The defense rests on each detection round drawing fresh fault noise
// (§VI.A), and reproducibility rests on that noise being a pure function
// of what was asked. Both hold with one rule: request `seq` of a scorer
// seeded `base_seed` draws its faults from request_stream(base_seed, seq)
// — never from a stream shared with, or partitioned between, other
// requests. The serving workers, the in-process attack oracle, the batch
// runtime and StochasticHmd itself all score through RequestScorer::score,
// so a fixed (seed, request index, operating point) gives bit-identical
// scores whichever of them ran it, on however many threads, in whatever
// order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faultsim/bit_fault_distribution.hpp"
#include "faultsim/fault_injector.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::hmd {

/// The random stream of request `seq` under `base_seed`: fault noise for
/// RequestScorer, epoch switching for Rhmd.
[[nodiscard]] rng::Xoshiro256ss request_stream(std::uint64_t base_seed,
                                               std::uint64_t seq) noexcept;

/// Caller-owned scoring state: one fault injector, forward scratch and
/// input tile. One per thread — it is mutable and must not be shared
/// concurrently.
class RequestScorer {
 public:
  /// Score one request: check that every window is net.input_dim() wide
  /// (std::invalid_argument otherwise, before any noise is drawn), flatten
  /// the windows into a tile, re-anchor the injector at
  /// request_stream(base_seed, seq), run Network::forward_batch and write
  /// one score per window into `scores`. Returns the fault statistics of
  /// this request alone. The injector is reconfigured only when the
  /// operating point (error rate, distribution) differs from the previous
  /// call's, and steady-state calls allocate nothing once the tile and
  /// `scores` have grown to the request size.
  faultsim::FaultStats score(const nn::Network& net,
                             std::span<const std::vector<double>> windows, double error_rate,
                             const faultsim::BitFaultDistribution& distribution,
                             std::uint64_t base_seed, std::uint64_t seq,
                             std::vector<double>& scores);

 private:
  faultsim::FaultInjector injector_{0.0, faultsim::BitFaultDistribution::measured()};
  nn::ForwardScratch scratch_;
  std::vector<double> tile_;  ///< windows-major flatten of the request
};

}  // namespace shmd::hmd
