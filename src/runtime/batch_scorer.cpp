#include "runtime/batch_scorer.hpp"

namespace shmd::runtime {

namespace {

std::vector<const trace::FeatureSet*> as_pointers(std::span<const trace::FeatureSet> batch) {
  std::vector<const trace::FeatureSet*> ptrs;
  ptrs.reserve(batch.size());
  for (const trace::FeatureSet& fs : batch) ptrs.push_back(&fs);
  return ptrs;
}

}  // namespace

BatchScorer::BatchScorer(const hmd::StochasticHmd& hmd, RuntimeConfig config)
    : hmd_(&hmd), seed_(config.seed), pool_(resolve_workers(config.num_workers)) {
  workers_.resize(pool_.size());
}

std::vector<std::vector<double>> BatchScorer::score_batch(
    std::span<const trace::FeatureSet> batch) {
  const auto ptrs = as_pointers(batch);
  return score_batch(std::span<const trace::FeatureSet* const>(ptrs));
}

std::vector<std::vector<double>> BatchScorer::score_batch(
    std::span<const trace::FeatureSet* const> batch) {
  // Pick up the detector's current operating point (space-exploration
  // sweeps move it between batches).
  const double er = hmd_->error_rate();
  const nn::Network& net = hmd_->network();
  const trace::FeatureConfig fc = hmd_->feature_config();
  const std::uint64_t first_seq = next_seq_;
  next_seq_ += batch.size();
  std::vector<std::vector<double>> scores(batch.size());
  pool_.run([&](std::size_t w) {
    Worker& worker = workers_[w];
    const Slice slice = worker_slice(batch.size(), w, workers_.size());
    for (std::size_t i = slice.begin; i < slice.end; ++i) {
      worker.stats.merge(worker.scorer.score(net, batch[i]->windows(fc), er,
                                             hmd_->fault_distribution(), seed_, first_seq + i,
                                             scores[i]));
    }
  });
  return scores;
}

std::vector<bool> BatchScorer::detect_batch(std::span<const trace::FeatureSet* const> batch,
                                            double threshold, double vote_fraction) {
  const std::vector<std::vector<double>> scores = score_batch(batch);
  std::vector<bool> verdicts(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    verdicts[i] = hmd::fraction_vote(scores[i], threshold, vote_fraction);
  }
  return verdicts;
}

faultsim::FaultStats BatchScorer::merged_stats() const {
  faultsim::FaultStats total;
  for (const Worker& worker : workers_) total.merge(worker.stats);
  return total;
}

RhmdBatchScorer::RhmdBatchScorer(const hmd::Rhmd& rhmd, RuntimeConfig config)
    : rhmd_(&rhmd), pool_(resolve_workers(config.num_workers)) {}

std::vector<std::vector<double>> RhmdBatchScorer::score_batch(
    std::span<const trace::FeatureSet> batch) {
  const auto ptrs = as_pointers(batch);
  return score_batch(std::span<const trace::FeatureSet* const>(ptrs));
}

std::vector<std::vector<double>> RhmdBatchScorer::score_batch(
    std::span<const trace::FeatureSet* const> batch) {
  const std::uint64_t first_seq = next_seq_;
  next_seq_ += batch.size();
  std::vector<std::vector<double>> scores(batch.size());
  pool_.run([&](std::size_t w) {
    const Slice slice = worker_slice(batch.size(), w, pool_.size());
    for (std::size_t i = slice.begin; i < slice.end; ++i) {
      rng::Xoshiro256ss switch_gen = hmd::request_stream(rhmd_->switch_seed(), first_seq + i);
      scores[i] = rhmd_->window_scores(*batch[i], switch_gen);
    }
  });
  return scores;
}

}  // namespace shmd::runtime
