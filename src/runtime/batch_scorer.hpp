// Batched, multi-threaded scoring for the stochastic detectors.
//
// The figure benches sweep error_rate x repeats x folds over thousands of
// programs, and the deployment story is a detection core serving many
// monitored programs per round. A batch scorer spreads one batch over a
// persistent pool: the batch is statically sliced across the workers (see
// thread_pool.hpp), and each worker scores its items through its own
// hmd::RequestScorer, so the steady-state hot loop allocates nothing.
//
// Determinism contract: request i of a scorer's run — items are numbered
// across batches from 0, in batch order — draws its fault noise from
// hmd::request_stream(seed, i). Scores and merged fault statistics are
// therefore a function of (seed, batch sequence) alone: any worker count
// reproduces a figure bit-for-bit, and consecutive batches still draw
// fresh noise.
#pragma once

#include <span>
#include <vector>

#include "faultsim/fault_injector.hpp"
#include "hmd/detector.hpp"
#include "hmd/request_scorer.hpp"
#include "hmd/rhmd.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "runtime/thread_pool.hpp"

namespace shmd::runtime {

struct RuntimeConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t num_workers = 0;
  /// Base seed of the per-request fault streams (request i draws from
  /// hmd::request_stream(seed, i)).
  std::uint64_t seed = 0xBA7C4ULL;
};

/// Batch front-end for a StochasticHmd in direct-er mode. The scorer
/// re-reads the detector's error rate at every batch, so space-exploration
/// sweeps that call set_error_rate() between batches need no re-setup.
/// (Voltage-driven detectors score through their own attached domain
/// serially; a batch runtime for that path would need one rail per worker
/// — see CpuPackage.)
class BatchScorer {
 public:
  explicit BatchScorer(const hmd::StochasticHmd& hmd, RuntimeConfig config = {});

  /// scores[i] = per-window live scores of batch[i], as
  /// StochasticHmd::window_scores would produce them.
  [[nodiscard]] std::vector<std::vector<double>> score_batch(
      std::span<const trace::FeatureSet> batch);
  /// Same, over non-contiguous feature sets (fold indices into a Dataset).
  [[nodiscard]] std::vector<std::vector<double>> score_batch(
      std::span<const trace::FeatureSet* const> batch);

  /// Per-program verdicts for one detection round (fraction_vote over each
  /// program's window scores, as Detector::detect).
  [[nodiscard]] std::vector<bool> detect_batch(
      std::span<const trace::FeatureSet* const> batch, double threshold = 0.5,
      double vote_fraction = hmd::Detector::kDefaultVoteFraction);

  [[nodiscard]] std::size_t num_workers() const noexcept { return workers_.size(); }
  /// Fault statistics of every request scored so far — the batch-run
  /// equivalent of StochasticHmd::fault_stats().
  [[nodiscard]] faultsim::FaultStats merged_stats() const;

 private:
  struct Worker {
    hmd::RequestScorer scorer;
    faultsim::FaultStats stats;
  };

  const hmd::StochasticHmd* hmd_;
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;  ///< request index of the next batch's first item
  std::vector<Worker> workers_;
  ThreadPool pool_;
};

/// Batch front-end for the RHMD baseline: request i of the run switches
/// epochs on hmd::request_stream(rhmd.switch_seed(), i), under the same
/// determinism contract as BatchScorer. The detector must outlive the
/// scorer. RuntimeConfig::seed is unused: RHMD's only noise is switching.
class RhmdBatchScorer {
 public:
  explicit RhmdBatchScorer(const hmd::Rhmd& rhmd, RuntimeConfig config = {});

  [[nodiscard]] std::vector<std::vector<double>> score_batch(
      std::span<const trace::FeatureSet> batch);
  [[nodiscard]] std::vector<std::vector<double>> score_batch(
      std::span<const trace::FeatureSet* const> batch);

  [[nodiscard]] std::size_t num_workers() const noexcept { return pool_.size(); }

 private:
  const hmd::Rhmd* rhmd_;
  std::uint64_t next_seq_ = 0;
  ThreadPool pool_;
};

}  // namespace shmd::runtime
