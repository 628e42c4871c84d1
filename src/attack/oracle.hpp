// QueryOracle: the attacker's only window onto the victim.
//
// The paper's threat model (§V) is black-box: the adversary submits
// programs and observes *decisions* — not scores, not weights, not the
// operating point. Everything in src/attack used to shortcut that by
// calling hmd::Detector directly; this interface makes the query channel
// explicit so the same RE/evasion pipeline runs unchanged against an
// in-process detector, an in-process twin of the scoring service,
// or (via redteam::NetOracle, one layer up) a live daemon over
// src/net — and so query budgets are enforced where queries happen.
//
// Replies are decision-only by default: OracleReply::scores stays empty
// unless the concrete oracle explicitly leaks scores (DetectorOracle in
// legacy mode). That matches both the deployed wire protocol
// (kVerdictResult) and the bit-parity requirement between in-process and
// over-the-wire campaigns: identical observed labels, identical proxy
// training sets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "hmd/detector.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "trace/dataset.hpp"

namespace shmd::attack {

/// What one query buys the attacker: the victim's observed per-window
/// decisions for a single program, sampled from whatever boundary the
/// victim is running right now.
struct OracleReply {
  /// Per-window decisions at the victim's (hidden) threshold.
  std::vector<bool> decisions;
  /// Program-level fraction-vote verdict.
  bool verdict = false;
  /// Operating point that answered (0 when the victim does not expose
  /// epochs). Attackers may not rely on it for crafting — it exists so
  /// campaigns can report boundary churn — but it folds into the
  /// decision hash, keeping the parity probe honest about *when* each
  /// answer was sampled, not just what it said.
  std::uint64_t epoch_id = 0;
  /// Raw scores. EMPTY in decision-only deployments (the default); only
  /// legacy score-leaking oracles fill it.
  std::vector<double> scores;
};

/// Thrown when a query would exceed the configured budget. The query is
/// not issued: a budgeted attacker simply runs out.
class OracleBudgetExhausted : public std::runtime_error {
 public:
  OracleBudgetExhausted()
      : std::runtime_error("QueryOracle: query budget exhausted") {}
};

class QueryOracle {
 public:
  QueryOracle() = default;
  QueryOracle(const QueryOracle&) = delete;
  QueryOracle& operator=(const QueryOracle&) = delete;
  virtual ~QueryOracle() = default;

  /// Submit one program; blocks until the victim answers. Charges one
  /// query against the budget (throws OracleBudgetExhausted first when
  /// none remain).
  [[nodiscard]] OracleReply query(const trace::FeatureSet& features);

  /// Submit a batch. Semantically a loop over query() — same replies,
  /// same order, same accounting — but wire-backed oracles overlap the
  /// round trips (pipelining). Charges batch.size() queries up front.
  [[nodiscard]] std::vector<OracleReply> query_many(
      std::span<const trace::FeatureSet* const> batch);

  /// Cap total queries (std::nullopt = unlimited). May be lowered or
  /// raised mid-campaign; accounting is cumulative per oracle.
  void set_budget(std::optional<std::uint64_t> budget) noexcept { budget_ = budget; }
  [[nodiscard]] std::optional<std::uint64_t> budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t queries_used() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    if (!budget_) return ~0ULL;
    return *budget_ > used_ ? *budget_ - used_ : 0;
  }

  /// FNV-1a digest over every observed reply (decision bits, verdict,
  /// epoch id, in query order). Two campaigns that saw bit-identical
  /// victim behavior have equal hashes — the cross-transport parity
  /// probe CI compares between an InProcessOracle and a NetOracle.
  [[nodiscard]] std::uint64_t decision_hash() const noexcept { return hash_; }

 protected:
  [[nodiscard]] virtual OracleReply do_query(const trace::FeatureSet& features) = 0;
  /// Default: sequential do_query loop. Override to pipeline.
  [[nodiscard]] virtual std::vector<OracleReply> do_query_many(
      std::span<const trace::FeatureSet* const> batch);

 private:
  void charge(std::uint64_t n);
  void observe(const OracleReply& reply) noexcept;

  std::optional<std::uint64_t> budget_;
  std::uint64_t used_ = 0;
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
};

/// Legacy adapter: wraps any hmd::Detector as an oracle. By default it
/// leaks raw scores (exactly what the pre-oracle attack code observed),
/// so existing benches keep their semantics; pass leak_scores = false
/// for the deployed decision-only channel.
class DetectorOracle final : public QueryOracle {
 public:
  explicit DetectorOracle(hmd::Detector& victim, double threshold = 0.5,
                          double vote_fraction = hmd::Detector::kDefaultVoteFraction,
                          bool leak_scores = true)
      : victim_(&victim), threshold_(threshold), vote_fraction_(vote_fraction),
        leak_scores_(leak_scores) {}

 protected:
  [[nodiscard]] OracleReply do_query(const trace::FeatureSet& features) override;

 private:
  hmd::Detector* victim_;
  double threshold_;
  double vote_fraction_;
  bool leak_scores_;
};

/// In-process twin of the scoring service, decision-only.
///
/// The oracle queries a private copy of the victim whose noise seed is
/// `service_seed`. Its k-th query is therefore request k of the shared
/// hmd::RequestScorer primitive under that seed — what a
/// serve::ScoringService worker runs for its k-th accepted request — voted
/// at the epoch threshold. A query that fails (a window of the wrong
/// width, a missing feature view) still spends its seq, as a failed
/// request does in the service. A campaign against this oracle is thus
/// bit-identical to the same campaign against a freshly started daemon
/// over the wire — the property tests/redteam_test.cpp and the CI
/// attack-smoke job pin down.
///
/// install_error_rate() is the in-process analogue of
/// ScoringService::install_epoch: it moves the boundary and stamps the
/// next epoch id, so query-count-driven epoch rolling (redteam::Campaign)
/// reproduces the daemon's schedule deterministically.
class InProcessOracle final : public QueryOracle {
 public:
  InProcessOracle(const hmd::StochasticHmd& victim, std::uint64_t service_seed,
                  double threshold = 0.5,
                  double vote_fraction = hmd::Detector::kDefaultVoteFraction);

  /// Swap the operating point (error rate); returns the stamped epoch id
  /// (initial point is epoch 1, mirroring install_epoch).
  std::uint64_t install_error_rate(double error_rate);
  [[nodiscard]] std::uint64_t epoch_id() const noexcept { return epoch_id_; }
  [[nodiscard]] double error_rate() const noexcept { return victim_.error_rate(); }

 protected:
  [[nodiscard]] OracleReply do_query(const trace::FeatureSet& features) override;

 private:
  hmd::StochasticHmd victim_;
  double threshold_;
  double vote_fraction_;
  std::uint64_t epoch_id_ = 1;
};

}  // namespace shmd::attack
