// Tests for the batch inference runtime: the determinism contract (same
// seed => bit-identical scores and fault statistics under any worker
// count), the thread pool, and the allocation-free steady state of the
// scratch forward path and of the shared RequestScorer primitive.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_set>

#include "hmd/builders.hpp"
#include "runtime/batch_scorer.hpp"
#include "runtime/thread_pool.hpp"
#include "support/test_corpus.hpp"

// Allocation probe: global operator new replacement counting every heap
// allocation in the process. The zero-allocation tests snapshot the
// counter around a steady-state loop.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Out of line, so GCC never sees free() inlined next to an operator new
// call and warns about a new/free mismatch that the malloc-backed
// replacement below does not have (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace shmd::runtime {
namespace {

using trace::FeatureConfig;
using trace::FeatureView;

/// Shared trained detector + a batch of testing-fold feature sets.
struct RuntimeFixture {
  const trace::Dataset& ds = test::small_dataset();
  trace::FoldSplit folds = ds.folds(0);
  FeatureConfig fc{FeatureView::kInsnCategory, ds.config().periods[0]};
  hmd::BaselineHmd baseline;
  std::vector<const trace::FeatureSet*> batch;

  RuntimeFixture()
      : baseline([&] {
          hmd::HmdTrainOptions opt;
          opt.train.epochs = 60;
          return hmd::make_baseline(test::small_dataset(),
                                    test::small_dataset().folds(0).victim_training,
                                    FeatureConfig{FeatureView::kInsnCategory,
                                                  test::small_dataset().config().periods[0]},
                                    opt);
        }()) {
    for (std::size_t idx : folds.testing) {
      batch.push_back(&ds.samples()[idx].features);
      if (batch.size() >= 24) break;
    }
  }

  static const RuntimeFixture& instance() {
    static const RuntimeFixture f;
    return f;
  }
};

// -------------------------------------------------------------- thread pool

TEST(WorkerSlice, TilesAllItemsExactlyOnce) {
  for (std::size_t n_items : {0u, 1u, 7u, 24u, 100u}) {
    for (std::size_t n_workers : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t w = 0; w < n_workers; ++w) {
        const Slice s = worker_slice(n_items, w, n_workers);
        EXPECT_EQ(s.begin, prev_end);
        EXPECT_LE(s.end, n_items);
        covered += s.end - s.begin;
        prev_end = s.end;
      }
      EXPECT_EQ(covered, n_items) << n_items << "/" << n_workers;
      EXPECT_EQ(prev_end, n_items);
    }
  }
}

TEST(ThreadPool, RunsJobOnEveryWorker) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(4, 0);
  pool.run([&](std::size_t w) { hits[w] += 1; });
  pool.run([&](std::size_t w) { hits[w] += 1; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPool, RejectsImplausibleWorkerCounts) {
  // A negative CLI value cast to size_t must fail with a clear error, not
  // a length_error from deep inside vector::reserve.
  EXPECT_THROW(ThreadPool(static_cast<std::size_t>(-1)), std::invalid_argument);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxWorkers + 1), std::invalid_argument);
}

TEST(ThreadPool, PropagatesWorkerExceptionsAndStaysUsable) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([](std::size_t w) {
                 if (w == 1) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.run([&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, RepeatedRethrowThenReuseCyclesStayConsistent) {
  // Regression guard for the rethrow path's bookkeeping: first_error_ and
  // pending_ must reset fully on every run(), including runs where
  // SEVERAL workers throw concurrently (only the first exception
  // propagates; the rest must be swallowed without corrupting the next
  // generation).
  ThreadPool pool(4);
  for (int cycle = 0; cycle < 8; ++cycle) {
    EXPECT_THROW(pool.run([](std::size_t w) {
                   if (w % 2 == 0) throw std::runtime_error("cycle boom");
                 }),
                 std::runtime_error)
        << "cycle " << cycle;
    std::atomic<int> ran{0};
    pool.run([&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4) << "cycle " << cycle;
  }
}

TEST(ResolveWorkers, ZeroMeansAllCoresAndExplicitCountsPassThrough) {
  // Shared by ThreadPool, BatchScorer and serve::ScoringService — "0 =
  // all cores" must mean the same thing everywhere.
  EXPECT_EQ(resolve_workers(0),
            std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_workers(1), 1u);
  EXPECT_EQ(resolve_workers(7), 7u);
}

// -------------------------------------------------------- stream discipline

TEST(WorkerStreams, JumpDerivedStreamsDoNotOverlap) {
  // Streams derived by jumping a base generator w times (the way parallel
  // experiment repeats split one seed). Over 10^5 draws per stream, the
  // outputs must be pairwise disjoint (jump() advances 2^128 steps, so
  // any overlap is a bug).
  constexpr std::size_t kDraws = 100000;
  rng::Xoshiro256ss base(0xBA7C4ULL);
  rng::Xoshiro256ss s0 = base;
  rng::Xoshiro256ss s1 = base;
  s1.jump();
  rng::Xoshiro256ss s2 = s1;
  s2.jump();

  std::unordered_set<std::uint64_t> seen0;
  seen0.reserve(kDraws * 2);
  for (std::size_t i = 0; i < kDraws; ++i) seen0.insert(s0());
  std::size_t collisions = 0;
  std::unordered_set<std::uint64_t> seen1;
  seen1.reserve(kDraws * 2);
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t x = s1();
    collisions += seen0.count(x);
    seen1.insert(x);
  }
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t x = s2();
    collisions += seen0.count(x);
    collisions += seen1.count(x);
  }
  EXPECT_EQ(collisions, 0u);
}

// -------------------------------------------------------------- BatchScorer

TEST(BatchScorer, SameSeedAndWorkerCountIsBitIdentical) {
  const auto& fx = RuntimeFixture::instance();
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.3);
  RuntimeConfig rt;
  rt.num_workers = 4;
  rt.seed = 99;
  BatchScorer first(det, rt);
  BatchScorer second(det, rt);
  const auto scores_a = first.score_batch(fx.batch);
  const auto scores_b = second.score_batch(fx.batch);
  EXPECT_EQ(scores_a, scores_b);
  // Consecutive batches draw fresh fault noise from the same streams —
  // the moving-target property survives batching.
  EXPECT_NE(first.score_batch(fx.batch), scores_a);
}

TEST(BatchScorer, ZeroErrorRateMatchesNominalScores) {
  const auto& fx = RuntimeFixture::instance();
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  RuntimeConfig rt;
  rt.num_workers = 3;
  BatchScorer scorer(det, rt);
  const auto scores = scorer.score_batch(fx.batch);
  ASSERT_EQ(scores.size(), fx.batch.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], det.window_scores_nominal(*fx.batch[i])) << i;
  }
}

TEST(BatchScorer, TracksDetectorErrorRateAcrossSweeps) {
  // Space-exploration usage: set_error_rate() between batches must take
  // effect without rebuilding the scorer.
  const auto& fx = RuntimeFixture::instance();
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.0);
  RuntimeConfig rt;
  rt.num_workers = 2;
  BatchScorer scorer(det, rt);
  (void)scorer.score_batch(fx.batch);
  EXPECT_EQ(scorer.merged_stats().faults, 0u);
  det.set_error_rate(0.5);
  (void)scorer.score_batch(fx.batch);
  const auto stats = scorer.merged_stats();
  EXPECT_GT(stats.faults, 0u);
  // Half the operations came from the er=0 batch, so the pooled rate sits
  // near 0.25.
  EXPECT_NEAR(stats.fault_rate(), 0.25, 0.05);
}

TEST(BatchScorer, ScoresAndStatsIndependentOfWorkerCount) {
  // Request i of the run draws from (seed, i) whichever worker scores it,
  // so 1, 2 and 4 workers give bit-identical scores and equal fault
  // statistics — over consecutive batches too.
  const auto& fx = RuntimeFixture::instance();
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.5);
  std::vector<std::vector<std::vector<double>>> reference;
  faultsim::FaultStats reference_stats;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    BatchScorer scorer(det, RuntimeConfig{workers, 0x5EEDULL});
    ASSERT_EQ(scorer.num_workers(), workers);
    std::vector<std::vector<std::vector<double>>> scores;
    for (int round = 0; round < 2; ++round) scores.push_back(scorer.score_batch(fx.batch));
    const faultsim::FaultStats stats = scorer.merged_stats();
    if (workers == 1) {
      reference = scores;
      reference_stats = stats;
      continue;
    }
    EXPECT_EQ(scores, reference) << workers << " workers";
    EXPECT_EQ(stats.operations, reference_stats.operations) << workers << " workers";
    EXPECT_EQ(stats.faults, reference_stats.faults) << workers << " workers";
    EXPECT_EQ(stats.bit_flips, reference_stats.bit_flips) << workers << " workers";
  }
  // Every window of every item passed through exactly one worker, twice.
  std::size_t windows = 0;
  for (const trace::FeatureSet* fs : fx.batch) windows += fs->windows(fx.fc).size();
  EXPECT_EQ(reference_stats.operations, 2 * windows * det.network().mac_count());
  EXPECT_GT(reference_stats.faults, 0u);
}

TEST(BatchScorer, ItemIScoresAsTheDetectorsIthCall) {
  // One primitive, one keying: a BatchScorer seeded with the detector's
  // noise seed reproduces the detector's own serial calls, item by item.
  const auto& fx = RuntimeFixture::instance();
  constexpr std::uint64_t kSeed = 0xC0FFEEULL;
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.2,
                         faultsim::BitFaultDistribution::measured(), kSeed);
  BatchScorer scorer(det, RuntimeConfig{3, kSeed});
  const auto batched = scorer.score_batch(fx.batch);
  for (std::size_t i = 0; i < fx.batch.size(); ++i) {
    EXPECT_EQ(batched[i], det.window_scores(*fx.batch[i])) << i;
  }
  EXPECT_EQ(scorer.merged_stats(), det.fault_stats());
}

TEST(BatchScorer, DetectBatchMatchesFractionVoteOverScores) {
  const auto& fx = RuntimeFixture::instance();
  hmd::StochasticHmd det(fx.baseline.network(), fx.fc, 0.1);
  RuntimeConfig rt;
  rt.num_workers = 2;
  rt.seed = 7;
  BatchScorer scoring(det, rt);
  BatchScorer detecting(det, rt);  // same seed: same underlying scores
  const auto scores = scoring.score_batch(fx.batch);
  const auto verdicts = detecting.detect_batch(fx.batch);
  ASSERT_EQ(verdicts.size(), scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(verdicts[i], hmd::fraction_vote(scores[i], 0.5, 0.5)) << i;
  }
}

// ---------------------------------------------------------- RhmdBatchScorer

TEST(RhmdBatchScorer, ReproducibleAndPlausible) {
  const auto& fx = RuntimeFixture::instance();
  hmd::HmdTrainOptions opt;
  opt.train.epochs = 40;
  const hmd::Rhmd rhmd = hmd::make_rhmd(fx.ds, fx.folds.victim_training,
                                        hmd::rhmd_2f(fx.ds.config().periods[0]), opt);
  // Item i switches on (switch seed, i) whichever worker scores it, so
  // 3 workers and 1 worker agree batch after batch.
  RhmdBatchScorer first(rhmd, RuntimeConfig{3, 0});
  RhmdBatchScorer second(rhmd, RuntimeConfig{1, 0});
  const auto scores_a = first.score_batch(fx.batch);
  EXPECT_EQ(scores_a, second.score_batch(fx.batch));
  const auto scores_b = first.score_batch(fx.batch);
  EXPECT_EQ(scores_b, second.score_batch(fx.batch));
  EXPECT_NE(scores_a, scores_b) << "consecutive batches must switch epochs afresh";
  ASSERT_EQ(scores_a.size(), fx.batch.size());
  for (std::size_t i = 0; i < scores_a.size(); ++i) {
    EXPECT_EQ(scores_a[i].size(), fx.batch[i]->windows(fx.fc).size()) << i;
    for (double s : scores_a[i]) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

// ------------------------------------------------------ allocation-free path

TEST(ForwardScratch, SteadyStateForwardIsAllocationFree) {
  const std::vector<std::size_t> topo{16, 32, 16, 1};
  const nn::Network net(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
  faultsim::FaultInjector inj(0.5, faultsim::BitFaultDistribution::measured());
  nn::FaultyContext ctx(inj);
  const std::vector<double> x(16, 0.3);
  nn::ForwardScratch scratch;
  (void)net.forward(x, ctx, scratch);  // warm-up: buffers grow here only

  double acc = 0.0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 512; ++i) acc += net.forward(x, ctx, scratch)[0];
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state forward must not touch the heap (acc=" << acc
                           << ")";
}

TEST(RequestScorer, SteadyStateScoringIsAllocationFree) {
  const auto& fx = RuntimeFixture::instance();
  const nn::Network& net = fx.baseline.network();
  const faultsim::BitFaultDistribution dist = faultsim::BitFaultDistribution::measured();
  const auto& windows = fx.batch.front()->windows(fx.fc);
  hmd::RequestScorer scorer;
  std::vector<double> scores;
  (void)scorer.score(net, windows, 0.1, dist, 1, 0, scores);  // warm-up: buffers grow here

  std::uint64_t faults = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    faults += scorer.score(net, windows, 0.1, dist, 1, seq, scores).faults;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state scoring must not touch the heap";
  EXPECT_GT(faults, 0u);
  EXPECT_EQ(scores.size(), windows.size());
}

TEST(RequestScorer, RejectsAWrongWidthWindowBeforeScoring) {
  const auto& fx = RuntimeFixture::instance();
  const std::vector<std::vector<double>> windows = {
      std::vector<double>(fx.baseline.network().input_dim(), 0.5), {0.5}};
  hmd::RequestScorer scorer;
  std::vector<double> scores{1.0};
  EXPECT_THROW((void)scorer.score(fx.baseline.network(), windows, 0.1,
                                  faultsim::BitFaultDistribution::measured(), 1, 0, scores),
               std::invalid_argument);
  EXPECT_EQ(scores, std::vector<double>{1.0}) << "a rejected request leaves the buffer alone";
}

}  // namespace
}  // namespace shmd::runtime
