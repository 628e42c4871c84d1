// Persistent worker pool for the batch inference runtime.
//
// Deliberately minimal: the runtime's unit of work is "worker w processes
// its fixed slice of the batch", so the pool only needs one fork/join
// primitive — run a callable on every worker and wait for all of them.
// Static slicing rather than a shared work queue: chunks are balanced to
// within one item and the detectors' per-item cost is near-uniform, so
// stealing would buy little. The slicing only spreads the work; scores do
// not depend on it, because the scorers key their noise by item, never by
// worker (see batch_scorer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace shmd::runtime {

/// Contiguous range of batch items owned by one worker.
struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Balanced static partition: worker `worker` of `n_workers` owns a
/// contiguous slice of `n_items`, the first `n_items % n_workers` workers
/// taking one extra item. The slices tile [0, n_items) exactly.
[[nodiscard]] Slice worker_slice(std::size_t n_items, std::size_t worker,
                                 std::size_t n_workers) noexcept;

/// Resolve a requested worker count: 0 means "all cores"
/// (std::thread::hardware_concurrency, floored at 1). Shared by every
/// pool-owning component (ThreadPool, BatchScorer, serve::ScoringService)
/// so "0 = all cores" means the same thing everywhere.
[[nodiscard]] std::size_t resolve_workers(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Upper bound on an explicit worker count; requests above it (usually a
  /// negative number cast to size_t) throw std::invalid_argument.
  static constexpr std::size_t kMaxWorkers = 4096;

  /// `n_workers` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Run `fn(worker_id)` on every worker (ids 0..size()-1) and block until
  /// all calls return. The first exception any worker throws is rethrown
  /// on the calling thread after the join; the pool stays usable.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> threads_;
  util::Mutex mu_;
  util::CondVar start_cv_ SHMD_CV_WAITS_ON(mu_);
  util::CondVar done_cv_ SHMD_CV_WAITS_ON(mu_);
  const std::function<void(std::size_t)>* job_ SHMD_GUARDED_BY(mu_) = nullptr;
  std::uint64_t generation_ SHMD_GUARDED_BY(mu_) = 0;
  std::size_t pending_ SHMD_GUARDED_BY(mu_) = 0;
  bool stop_ SHMD_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ SHMD_GUARDED_BY(mu_);
};

}  // namespace shmd::runtime
