// RequestQueue: the bounded MPMC ring between request producers and the
// scoring workers.
//
// Design constraints, in order:
//   bounded   — an always-on detector under attack must degrade by
//               *shedding* (reject-with-status) rather than by unbounded
//               queue growth: a flood of scoring requests is itself an
//               evasion vector (starve the detector until the evasive
//               sample has run). Capacity is fixed at construction.
//   two paths — try_push() is the overload-control path (never blocks,
//               reports kShed when full); push() is the closed-loop path
//               (blocks until space, for cooperative in-process callers).
//   deadlines — each request carries an absolute deadline; expiry is
//               checked at *dequeue* so a stale request costs a counter
//               bump, not an inference. The serving layer additionally
//               rejects on arrival when the predicted queue wait already
//               exceeds the deadline (admit::WaitPredictor), so doomed
//               requests never occupy a slot.
//   policy    — overload behavior (what to do on overflow, which end of
//               the ring to pop from) is pluggable via
//               admit::AdmissionPolicy. Policies change WHICH requests
//               get scored, never WHAT a surviving request scores: seq
//               is stamped at admission under the mutex and each fault
//               stream is a pure function of (seed, seq).
//   mutex+cv  — the ring holds trivially-copyable Request structs under
//               one mutex with two condition variables. At the service's
//               operating point (requests cost ~µs of inference each) the
//               lock is uncontended; a lock-free ring would buy nothing
//               measurable and cost TSan-provable correctness.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "admit/policy.hpp"
#include "serve/service_stats.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace shmd::trace {
class FeatureSet;
}  // namespace shmd::trace

namespace shmd::serve {

class ScoreTicket;

using ServiceClock = std::chrono::steady_clock;

/// Disposition of one submission attempt.
enum class SubmitStatus : std::uint8_t {
  kAccepted,  ///< enqueued; the ticket will be completed exactly once
  kShed,      ///< queue full (try_submit only); no worker will see the request
  kClosed,    ///< service is shutting down; no worker will see the request
  kRejected,  ///< admission control: the deadline is unmeetable (already
              ///< expired, or predicted queue wait exceeds the budget);
              ///< no worker will see the request
};

/// One queued scoring request. Plain data — the ring stores these by
/// value, so enqueue/dequeue never allocate.
struct Request {
  ScoreTicket* ticket = nullptr;              ///< caller-owned completion slot
  const trace::FeatureSet* features = nullptr;  ///< caller-owned, must outlive scoring
  ServiceClock::time_point deadline = ServiceClock::time_point::max();
  ServiceClock::time_point enqueue_time{};
  /// Admission order, stamped by the queue: the k-th accepted request
  /// carries seq k. Seeds the request's private fault stream.
  std::uint64_t seq = 0;
};

class RequestQueue {
 public:
  /// `policy` selects the overload behavior (see admit::AdmissionPolicy);
  /// nullptr installs the FIFO baseline. A non-null `stats` counts each
  /// admission under the lock, before any consumer can pop the request.
  explicit RequestQueue(std::size_t capacity,
                        std::unique_ptr<const admit::AdmissionPolicy> policy = nullptr,
                        ServiceStats* stats = nullptr);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Non-blocking enqueue: kShed when the ring is full, kClosed after
  /// close(). The overload-shedding path.
  ///
  /// Under a drop-oldest policy a full ring evicts instead of shedding:
  /// the oldest admitted request is moved into `*evicted` (its ticket
  /// non-null; the CALLER must complete it — the queue never touches
  /// tickets) and the newcomer is admitted with a fresh seq. With
  /// `evicted == nullptr` a full ring always sheds, whatever the policy —
  /// callers that cannot complete a victim opt out of eviction.
  [[nodiscard]] SubmitStatus try_push(const Request& request, Request* evicted = nullptr);

  /// Blocking enqueue: waits for space. Returns kClosed if the queue is
  /// (or becomes) closed while waiting.
  [[nodiscard]] SubmitStatus push(const Request& request);

  /// Blocking dequeue: waits for a request. Returns false only when the
  /// queue is closed AND drained — accepted requests are always handed to
  /// a worker, never dropped.
  [[nodiscard]] bool pop(Request& out);

  /// Blocking batch dequeue: waits until at least one request is
  /// available (same pause/close gating as pop), then drains up to
  /// `max_batch` requests — whatever is queued RIGHT NOW, never waiting
  /// to fill the batch (batching amortizes the lock, it must not add
  /// latency) — into `out` (cleared first) in FIFO admission order,
  /// all under one lock acquisition. Returns out.size(); 0 only when the
  /// queue is closed AND drained.
  [[nodiscard]] std::size_t pop_batch(std::vector<Request>& out, std::size_t max_batch);

  /// Stop accepting new requests and wake every waiter. Requests already
  /// accepted remain poppable (drain semantics). Idempotent.
  void close();

  /// Gate the consumer side: while paused, pop() blocks even when
  /// requests are queued, so producers observably fill the ring (the
  /// overload tests and drain-for-maintenance both need this to be
  /// deterministic). close() overrides pause so shutdown always drains.
  void set_paused(bool paused);

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] const admit::AdmissionPolicy& policy() const noexcept { return *policy_; }

 private:
  /// Append a request to a ring with room, stamping its seq (mu_ held).
  void append(const Request& request) SHMD_REQUIRES(mu_);
  /// Pop one request off whichever end the policy selects (mu_ held).
  [[nodiscard]] Request take_one() SHMD_REQUIRES(mu_);

  /// Installed before any thread sees the queue; immutable afterwards.
  const std::unique_ptr<const admit::AdmissionPolicy> policy_;
  ServiceStats* const stats_;
  mutable util::Mutex mu_;
  util::CondVar not_full_ SHMD_CV_WAITS_ON(mu_);
  util::CondVar not_empty_ SHMD_CV_WAITS_ON(mu_);
  /// The ring buffer itself is sized once in the constructor and never
  /// reallocated; only its slots are written under the lock. capacity()
  /// reads the invariant size lock-free.
  std::vector<Request> ring_;
  std::size_t head_ SHMD_GUARDED_BY(mu_) = 0;   ///< index of the oldest queued request
  std::size_t count_ SHMD_GUARDED_BY(mu_) = 0;  ///< queued requests
  /// Admission counter (stamps Request::seq).
  std::uint64_t next_seq_ SHMD_GUARDED_BY(mu_) = 0;
  bool closed_ SHMD_GUARDED_BY(mu_) = false;
  bool paused_ SHMD_GUARDED_BY(mu_) = false;
};

}  // namespace shmd::serve
