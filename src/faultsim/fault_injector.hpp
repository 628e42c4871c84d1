// FaultInjector: the paper's "stochastic fault injection tool" (§VI.A).
//
// "...we built a stochastic fault injection tool that emulates timing
//  violations at the output of arithmetic operations, based on the error
//  distribution model detailed earlier in Section II. Practically, the tool
//  injects timing violation errors that follow the distribution that
//  matches the undervolting level."
//
// The injector owns: the per-operation fault probability (the paper's
// "error rate", er), the bit-location distribution (Fig. 1 shape), and its
// own RNG stream. It exposes corruption hooks for raw 64-bit multiplier
// outputs (characterization experiments) and for real-valued MAC products
// (detector inference), plus per-bit statistics for regenerating Fig. 1.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "faultsim/bit_fault_distribution.hpp"
#include "rng/xoshiro256ss.hpp"

namespace shmd::faultsim {

/// Per-bit and aggregate fault statistics (drives Fig. 1).
struct FaultStats {
  std::uint64_t operations = 0;  ///< corruption opportunities seen
  std::uint64_t faults = 0;      ///< operations that actually faulted
  std::array<std::uint64_t, BitFaultDistribution::kBits> bit_flips{};

  [[nodiscard]] double fault_rate() const noexcept {
    return operations == 0 ? 0.0 : static_cast<double>(faults) / static_cast<double>(operations);
  }
  /// Per-bit error rate: fraction of *operations* whose output had this
  /// bit flipped (the y-axis of Fig. 1).
  [[nodiscard]] double bit_error_rate(int bit) const;
  void reset() noexcept { *this = FaultStats{}; }

  /// Accumulate another collector's counts (the runtime merges per-worker
  /// statistics into a batch total with this).
  void merge(const FaultStats& other) noexcept {
    operations += other.operations;
    faults += other.faults;
    for (std::size_t b = 0; b < bit_flips.size(); ++b) bit_flips[b] += other.bit_flips[b];
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// `er` when it is a valid per-operation fault probability (in [0, 1]);
/// throws std::invalid_argument otherwise (NaN included).
[[nodiscard]] double checked_error_rate(double er);

class FaultInjector {
 public:
  FaultInjector(double error_rate, BitFaultDistribution distribution,
                std::uint64_t seed = 0xFA017ULL);

  /// Per-operation fault probability in [0, 1] — the paper's er knob.
  void set_error_rate(double er);
  [[nodiscard]] double error_rate() const noexcept { return error_rate_; }

  void set_distribution(BitFaultDistribution distribution) noexcept {
    distribution_ = distribution;
  }
  [[nodiscard]] const BitFaultDistribution& distribution() const noexcept {
    return distribution_;
  }

  /// Corrupt a raw 64-bit multiplier output: with probability er, flip one
  /// bit sampled from the location distribution. Used by the §II
  /// characterization experiments.
  [[nodiscard]] std::uint64_t corrupt_u64(std::uint64_t product);

  /// Same, but under a one-off probability `p` instead of the configured
  /// flat rate (operand-dependent criticality, FaultyAlu). The configured
  /// rate is untouched; `p` must be a finite value in [0, 1].
  [[nodiscard]] std::uint64_t corrupt_u64(std::uint64_t product, double p);

  /// Corrupt a real-valued MAC product through the Q16.47 lens: with
  /// probability er, flip one eligible bit of the fixed-point image and
  /// convert back. Used by the Stochastic-HMD inference path. Inline:
  /// this is the per-product cost of the dense-fault dot regime.
  [[nodiscard]] double corrupt_product(double product) {
    ++stats_.operations;
    // A non-finite product has no Q16.47 bit image to flip; pass it
    // through untouched (before consuming any RNG, so fault streams are
    // unaffected).
    if (!std::isfinite(product)) return product;
    if (!gen_.bernoulli(error_rate_)) return product;
    const int bit = distribution_.sample(gen_);
    ++stats_.faults;
    ++stats_.bit_flips[static_cast<std::size_t>(bit)];
    const std::int64_t q = to_q(product);
    const auto flipped =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(q) ^ (std::uint64_t{1} << bit));
    return from_q(flipped);
  }

  // -- span-level (skip-ahead) fault sampling ------------------------------
  //
  // A Bernoulli(er) decision per product over a span is equivalent to
  // sampling the gap to the next faulted product from Geometric(er): the
  // span-level ArithmeticContext::dot kernels run exact vectorizable dot
  // products between sampled fault sites instead of paying one virtual
  // call + one RNG draw per MAC, with identical per-product fault
  // statistics (see DESIGN.md "Span-level arithmetic").

  /// Gap sentinel: no fault within any feasible span length.
  static constexpr std::size_t kNoFault = std::numeric_limits<std::size_t>::max();

  /// Sample the number of fault-free products preceding the next faulted
  /// one in a Bernoulli(er) product stream (Geometric(er) by inversion:
  /// floor(log1p(-u) / log1p(-er))). Returns kNoFault when er == 0 (and
  /// consumes no randomness); returns 0 on every call when er == 1.
  /// Geometric memorylessness makes it sound to discard the tail of a
  /// sampled gap at a span boundary and resample for the next span.
  /// The er == 0 no-draw guarantee is load-bearing beyond speed:
  /// FaultyContext::gemm reblocks its tile through the exact kernel at
  /// er == 0 precisely because the generator state is untouched either
  /// way, keeping the batched path stream-identical to per-row dot().
  /// Inline (like corrupt_product_at_fault): one call per fault site is
  /// the entire non-SIMD cost of the skip-ahead dot kernel.
  [[nodiscard]] std::size_t next_fault_gap() {
    if (error_rate_ <= 0.0) return kNoFault;
    if (error_rate_ >= 1.0) return 0;
    // Inversion: u ~ U[0,1) -> floor(log(1-u) / log(1-er)) ~ Geometric(er),
    // the count of fault-free trials before the first success. log1p keeps
    // full precision at the small error rates the paper sweeps (er <= 1e-2).
    const double u = gen_.uniform01();
    const double gap = std::floor(std::log1p(-u) * inv_log1m_er_);
    if (gap >= static_cast<double>(kNoFault)) return kNoFault;
    return static_cast<std::size_t>(gap);
  }

  /// Unconditionally fault one product the caller selected via
  /// next_fault_gap(): flip one eligible Q16.47 bit and count the fault.
  /// Does NOT advance the operations counter — span callers account for
  /// whole spans with count_operations(). Non-finite products have no bit
  /// image and pass through unfaulted, exactly as in corrupt_product().
  [[nodiscard]] double corrupt_product_at_fault(double product) {
    if (!std::isfinite(product)) return product;
    const int bit = distribution_.sample(gen_);
    ++stats_.faults;
    ++stats_.bit_flips[static_cast<std::size_t>(bit)];
    const std::int64_t q = to_q(product);
    const auto flipped =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(q) ^ (std::uint64_t{1} << bit));
    return from_q(flipped);
  }

  /// Advance the operations counter by a whole span of products, so
  /// FaultStats sees the same opportunity count whether a span ran through
  /// the scalar path or a skip-ahead kernel.
  void count_operations(std::uint64_t n) noexcept { stats_.operations += n; }

  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  /// Direct access to the injector's RNG stream: hmd::RequestScorer
  /// re-anchors it per request, and tests use it to verify stream
  /// independence; nothing else should.
  [[nodiscard]] rng::Xoshiro256ss& generator() noexcept { return gen_; }

 private:
  /// Flip one distribution-sampled bit of `product` and record the fault.
  [[nodiscard]] std::uint64_t apply_fault_u64(std::uint64_t product);

  double error_rate_;
  double inv_log1m_er_ = 0.0;  ///< 1 / log1p(-er), cached for next_fault_gap()
  BitFaultDistribution distribution_;
  rng::Xoshiro256ss gen_;
  FaultStats stats_;
};

}  // namespace shmd::faultsim
