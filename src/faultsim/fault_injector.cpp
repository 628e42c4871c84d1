#include "faultsim/fault_injector.hpp"

#include <cmath>
#include <stdexcept>

namespace shmd::faultsim {

double FaultStats::bit_error_rate(int bit) const {
  if (bit < 0 || bit >= BitFaultDistribution::kBits) {
    throw std::out_of_range("bit_error_rate: bit out of range");
  }
  if (operations == 0) return 0.0;
  return static_cast<double>(bit_flips[static_cast<std::size_t>(bit)]) /
         static_cast<double>(operations);
}

FaultInjector::FaultInjector(double error_rate, BitFaultDistribution distribution,
                             std::uint64_t seed)
    : error_rate_(0.0), distribution_(distribution), gen_(seed) {
  set_error_rate(error_rate);
}

double checked_error_rate(double er) {
  // The negated-range spelling rejects NaN too: a NaN er would sail past
  // `er < 0 || er > 1` and silently break the skip-ahead geometric math
  // (log1p(-NaN) gaps) as well as every Bernoulli draw downstream.
  if (!(er >= 0.0 && er <= 1.0)) throw std::invalid_argument("error rate must be in [0, 1]");
  return er;
}

void FaultInjector::set_error_rate(double er) {
  error_rate_ = checked_error_rate(er);
  // Cached for next_fault_gap(): one log per geometric draw instead of two.
  inv_log1m_er_ = (er > 0.0 && er < 1.0) ? 1.0 / std::log1p(-er) : 0.0;
}

std::uint64_t FaultInjector::apply_fault_u64(std::uint64_t product) {
  const int bit = distribution_.sample(gen_);
  ++stats_.faults;
  ++stats_.bit_flips[static_cast<std::size_t>(bit)];
  return product ^ (std::uint64_t{1} << bit);
}

std::uint64_t FaultInjector::corrupt_u64(std::uint64_t product) {
  ++stats_.operations;
  if (!gen_.bernoulli(error_rate_)) return product;
  return apply_fault_u64(product);
}

std::uint64_t FaultInjector::corrupt_u64(std::uint64_t product, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("per-operation fault probability must be in [0, 1]");
  }
  ++stats_.operations;
  if (!gen_.bernoulli(p)) return product;
  return apply_fault_u64(product);
}

}  // namespace shmd::faultsim
