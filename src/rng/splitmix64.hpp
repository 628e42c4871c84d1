// SplitMix64: used for seeding the other generators from a single u64 seed
// (the canonical seeding procedure recommended for xoshiro/xoroshiro).
#pragma once

#include <cstdint>

namespace shmd::rng {

class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

 private:
  std::uint64_t state_;
};

/// Deterministic per-item stream seed: splitmix over a base seed and a
/// golden-ratio-spread sequence number. This is the request-keying
/// formula of the project's determinism contract: hmd::request_stream
/// seeds request k's random stream from stream_seed(seed, k), and every
/// stochastic scorer draws its noise from there.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t base,
                                                  std::uint64_t seq) noexcept {
  SplitMix64 mix(base ^ ((seq + 1) * 0x9E3779B97F4A7C15ULL));
  return mix();
}

}  // namespace shmd::rng
