#include "attack/oracle.hpp"

namespace shmd::attack {

namespace {

/// FNV-1a, one byte at a time — the same digest idiom the loadgens use
/// for score hashes.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint8_t byte) noexcept {
  return (hash ^ byte) * 0x100000001B3ULL;
}

/// Per-window decisions and the fraction-vote verdict over one query's
/// live scores; the scores themselves ride along only when leaked.
OracleReply decide(std::vector<double> scores, double threshold, double vote_fraction,
                   bool leak_scores) {
  OracleReply reply;
  reply.decisions.resize(scores.size());
  for (std::size_t w = 0; w < scores.size(); ++w) reply.decisions[w] = scores[w] >= threshold;
  reply.verdict = hmd::fraction_vote(scores, threshold, vote_fraction);
  if (leak_scores) reply.scores = std::move(scores);
  return reply;
}

}  // namespace

OracleReply QueryOracle::query(const trace::FeatureSet& features) {
  charge(1);
  OracleReply reply = do_query(features);
  observe(reply);
  return reply;
}

std::vector<OracleReply> QueryOracle::query_many(
    std::span<const trace::FeatureSet* const> batch) {
  charge(batch.size());
  std::vector<OracleReply> replies = do_query_many(batch);
  for (const OracleReply& reply : replies) observe(reply);
  return replies;
}

std::vector<OracleReply> QueryOracle::do_query_many(
    std::span<const trace::FeatureSet* const> batch) {
  std::vector<OracleReply> replies;
  replies.reserve(batch.size());
  for (const trace::FeatureSet* features : batch) replies.push_back(do_query(*features));
  return replies;
}

void QueryOracle::charge(std::uint64_t n) {
  if (budget_ && used_ + n > *budget_) throw OracleBudgetExhausted();
  used_ += n;
}

void QueryOracle::observe(const OracleReply& reply) noexcept {
  for (const bool d : reply.decisions) hash_ = fnv1a(hash_, d ? 1 : 0);
  hash_ = fnv1a(hash_, reply.verdict ? 1 : 0);
  for (int b = 0; b < 8; ++b) {
    hash_ = fnv1a(hash_, static_cast<std::uint8_t>(reply.epoch_id >> (8 * b)));
  }
}

OracleReply DetectorOracle::do_query(const trace::FeatureSet& features) {
  return decide(victim_->window_scores(features), threshold_, vote_fraction_, leak_scores_);
}

InProcessOracle::InProcessOracle(const hmd::StochasticHmd& victim,
                                 std::uint64_t service_seed, double threshold,
                                 double vote_fraction)
    : victim_(victim.network(), victim.feature_config(), victim.error_rate(),
              victim.fault_distribution(), service_seed),
      threshold_(threshold), vote_fraction_(vote_fraction) {}

std::uint64_t InProcessOracle::install_error_rate(double error_rate) {
  victim_.set_error_rate(error_rate);
  return ++epoch_id_;
}

OracleReply InProcessOracle::do_query(const trace::FeatureSet& features) {
  // Decision-only: the deployed channel never leaks scores.
  OracleReply reply = decide(victim_.window_scores(features), threshold_, vote_fraction_,
                             /*leak_scores=*/false);
  reply.epoch_id = epoch_id_;
  return reply;
}

}  // namespace shmd::attack
