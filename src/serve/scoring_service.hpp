// ScoringService: the always-on scoring front-end of the repository.
//
// The paper's deployment (§I, §IX) is a dedicated undervolted core that
// re-classifies every running program each detection round. The batch
// runtime (runtime::BatchScorer) models one such round as a fork/join over
// a frozen workload; this service models the *steady state* — a continuous
// stream of scoring requests from monitors, benches, and (eventually)
// network front-ends, flowing through a bounded ring into a resident
// worker pool, while the stochastic boundary re-rolls underneath via
// epoch swaps (epoch.hpp).
//
// Determinism contract: each accepted request gets a sequence number at
// admission, and the worker that scores it goes through the shared
// hmd::RequestScorer primitive at that seq — the same (seed, request
// index) keying BatchScorer, StochasticHmd and the in-process attack
// oracle use. Which worker dequeues which request is a race, but no
// stream is tied to a worker, so a fixed seed reproduces bit-identical
// scores for the k-th accepted request under ANY worker count, batch size
// and scheduling. Workers still own a private RequestScorer each (no
// sharing, no locks on the scoring path, zero steady-state allocation in
// the forward pass).
//
// Overload discipline: the ring is bounded; try_submit() sheds with
// kShed instead of queueing unboundedly (a request flood must not be able
// to starve the detector — see request_queue.hpp), and every request
// carries an optional absolute deadline checked at dequeue. On top of
// that sits deadline-aware admission (src/admit/): try_submit rejects on
// arrival (kRejected) when the deadline is already unmeetable — expired
// at submit, or the WaitPredictor's estimated queue wait exceeds the
// remaining budget — so doomed requests never occupy a ring slot; and the
// configured AdmissionPolicy decides overflow behavior (shed newcomer /
// evict oldest) and dequeue order (FIFO / LIFO-under-overload).
// ServiceStats accounts each submission as exactly one of scored / shed /
// rejected / deadline-missed / evicted (plus a failed counter that stays
// zero unless a caller violates the feature-set contract), and scored
// splits into on-time and late so goodput — scored within deadline — is
// first-class.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "admit/policy.hpp"
#include "admit/wait_predictor.hpp"
#include "hmd/request_scorer.hpp"
#include "serve/epoch.hpp"
#include "serve/request_queue.hpp"
#include "serve/service_stats.hpp"
#include "trace/dataset.hpp"

namespace shmd::serve {

struct ServeConfig {
  /// Scoring worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t num_workers = 0;
  /// Ring capacity; submissions beyond it block (submit) or shed
  /// (try_submit).
  std::size_t queue_capacity = 1024;
  /// Base seed for the per-request fault streams.
  std::uint64_t seed = 0x5E7F1CEULL;
  /// Upper bound on how many queued requests one worker drains and scores
  /// per queue round-trip (cross-request batching: one lock acquisition
  /// and one epoch load per batch). Batching never delays a lone request —
  /// a batch pop returns with whatever is queued — and never changes
  /// scores: each request draws from its own (seed, seq) stream, so
  /// results are bit-identical for any max_batch. Must be >= 1.
  std::size_t max_batch = 16;
  /// Overload policy installed on the queue (see admit::AdmissionPolicy).
  /// Every policy preserves the determinism contract.
  admit::PolicyKind admission_policy = admit::PolicyKind::kFifo;
  /// When true, try_submit with a deadline returns kRejected if the
  /// WaitPredictor's estimated queue wait already exceeds the deadline
  /// budget (reject-on-arrival). Requests without a deadline are never
  /// rejected this way.
  bool reject_on_arrival = true;
  /// EWMA smoothing factor for the per-request service-time estimate.
  double ewma_alpha = 0.1;
};

/// Terminal disposition of an accepted request.
enum class RequestOutcome : std::uint8_t {
  kPending,         ///< not yet completed (in queue or being scored)
  kScored,          ///< scored under the epoch recorded in epoch_id()
  kDeadlineMissed,  ///< expired in the queue; never scored
  kFailed,          ///< scoring threw (e.g. feature set lacks the epoch's view)
  kRejected,        ///< turned away by admission control (unmeetable deadline
                    ///< at submit) or evicted by a drop-oldest overflow policy;
                    ///< never scored
};

/// Caller-owned completion slot for one request. Submit it, wait() (or
/// poll done()), read the results; the same ticket can then be submitted
/// again — its score buffer keeps its capacity, so a monitor that reuses
/// tickets round after round allocates nothing in steady state. A ticket
/// must stay alive and unmoved from submission until done() — it is
/// neither copyable nor movable to make the aliasing contract explicit.
class ScoreTicket {
 public:
  ScoreTicket() = default;
  ScoreTicket(const ScoreTicket&) = delete;
  ScoreTicket& operator=(const ScoreTicket&) = delete;

  /// Push-style completion for event-loop callers (the network front-end):
  /// `hook(arg)` fires on the completing thread every time the ticket
  /// transitions to done — after a worker finishes the request AND after a
  /// rejected submission. It runs strictly after the done-notification, so
  /// a reactor woken by the hook may free the ticket without racing the
  /// worker's notify; a caller that does so must not also wait() on the
  /// ticket from another thread. The hook must be noexcept and cheap (it
  /// runs on the scoring worker); it survives begin(), so set it once per
  /// ticket lifetime. Set before submitting — never while a submission is
  /// in flight.
  using CompletionHook = void (*)(void*) noexcept;
  void set_completion_hook(CompletionHook hook, void* arg) noexcept {
    hook_ = hook;
    hook_arg_ = arg;
  }

  /// Block until no submission is in flight. A fresh ticket (and one
  /// whose submission was rejected) is already done with outcome
  /// kPending, so wait() only ever blocks on an accepted submission —
  /// ticket pools can wait() unconditionally before reuse.
  void wait() const noexcept {
    // C++20 atomic wait: futex-backed, no per-ticket mutex.
    done_.wait(false, std::memory_order_acquire);
  }
  [[nodiscard]] bool done() const noexcept { return done_.load(std::memory_order_acquire); }

  // Results — meaningful only once done() is true.
  [[nodiscard]] RequestOutcome outcome() const noexcept { return outcome_; }
  /// Per-window live scores (empty unless outcome() == kScored).
  [[nodiscard]] const std::vector<double>& scores() const noexcept { return scores_; }
  /// fraction_vote verdict under the scoring epoch's threshold.
  [[nodiscard]] bool verdict() const noexcept { return verdict_; }
  /// Epoch that completed this request (DetectorEpoch::id).
  [[nodiscard]] std::uint64_t epoch_id() const noexcept { return epoch_id_; }
  /// The scoring epoch's decision threshold, stamped by the worker — how
  /// a decision-only front-end turns scores() into per-window decisions
  /// without being told the (defender-private) operating point.
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  /// Enqueue→completion time.
  [[nodiscard]] std::chrono::nanoseconds latency() const noexcept { return latency_; }

  /// Mark this ticket's submissions as decision-only queries (kVerdict
  /// traffic): the service counts them per epoch in ServiceStats so a
  /// defender can see hostile query volume per operating point. Like the
  /// completion hook this survives begin() — set once per ticket
  /// lifetime, before submitting.
  void set_decision_only(bool decision_only) noexcept { decision_only_ = decision_only; }
  [[nodiscard]] bool decision_only() const noexcept { return decision_only_; }

 private:
  friend class ScoringService;

  void begin() noexcept {
    outcome_ = RequestOutcome::kPending;
    scores_.clear();  // capacity retained: steady-state reuse allocates nothing
    verdict_ = false;
    epoch_id_ = 0;
    threshold_ = 0.5;
    latency_ = std::chrono::nanoseconds{0};
    done_.store(false, std::memory_order_relaxed);
  }
  void complete(RequestOutcome outcome) noexcept {
    // Copy the hook out BEFORE publishing done_: the instant the store
    // lands, a wait()ing owner may destroy the ticket, so no member may
    // be touched past this line. (notify_all is safe on the published
    // atomic: libstdc++ keys its waiter table by address.)
    const CompletionHook hook = hook_;
    void* const hook_arg = hook_arg_;
    outcome_ = outcome;
    done_.store(true, std::memory_order_release);
    done_.notify_all();
    if (hook != nullptr) hook(hook_arg);
  }
  /// Undo begin() after a rejected submission (no worker ever saw the
  /// request): the ticket is done() again — with outcome kPending for a
  /// shed/closed rejection (nothing decided about the request itself), or
  /// kRejected when admission control turned it away — so rejected
  /// tickets can be resubmitted and never hang a wait().
  void abort_submit(RequestOutcome outcome = RequestOutcome::kPending) noexcept {
    const CompletionHook hook = hook_;  // same discipline as complete()
    void* const hook_arg = hook_arg_;
    outcome_ = outcome;
    done_.store(true, std::memory_order_release);
    done_.notify_all();
    if (hook != nullptr) hook(hook_arg);
  }

  std::vector<double> scores_;
  std::chrono::nanoseconds latency_{0};
  std::uint64_t epoch_id_ = 0;
  double threshold_ = 0.5;
  bool verdict_ = false;
  RequestOutcome outcome_ = RequestOutcome::kPending;
  std::atomic<bool> done_{true};  // fresh = done-with-no-result; begin() arms it
  CompletionHook hook_ = nullptr;  // survives begin(): per-lifetime, not per-submit
  void* hook_arg_ = nullptr;
  bool decision_only_ = false;  // survives begin(), like the hook
};

class ScoringService {
 public:
  /// Starts the worker pool and installs `initial_epoch` (stamped as
  /// epoch 1).
  explicit ScoringService(DetectorEpoch initial_epoch, ServeConfig config = {});
  ~ScoringService();  ///< close(), drain, join

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  // -- reconfiguration (the moving-target control plane) -------------------

  /// Atomically publish a new operating point; returns the stamped epoch
  /// id. In-flight requests finish under the epoch they started with;
  /// requests dequeued after the swap score under the new one. Never
  /// blocks scoring.
  std::uint64_t install_epoch(DetectorEpoch epoch);
  [[nodiscard]] std::shared_ptr<const DetectorEpoch> current_epoch() const {
    return slot_.current();
  }

  // -- request plane -------------------------------------------------------

  /// Blocking submission: waits for ring space. The ticket and feature
  /// set must outlive completion. Returns kClosed after close().
  SubmitStatus submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                      std::optional<ServiceClock::time_point> deadline = std::nullopt);

  /// Non-blocking submission: kShed when the ring is full (or, under a
  /// drop-oldest policy, the OLDEST queued request is evicted to admit
  /// this one), kRejected when the deadline is unmeetable on arrival —
  /// the overload-control path. A shed ticket is done() with outcome
  /// kPending, an admission-rejected one with kRejected; either may be
  /// resubmitted immediately.
  SubmitStatus try_submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                          std::optional<ServiceClock::time_point> deadline = std::nullopt);

  /// Closed-loop convenience: submit every item, wait for all, return
  /// per-item window scores (the queue-path analogue of
  /// BatchScorer::score_batch). Throws std::runtime_error if the service
  /// is closed.
  [[nodiscard]] std::vector<std::vector<double>> score_all(
      std::span<const trace::FeatureSet* const> batch);
  /// Same, but per-item verdicts under the scoring epoch's threshold.
  [[nodiscard]] std::vector<bool> detect_all(std::span<const trace::FeatureSet* const> batch);

  // -- lifecycle -----------------------------------------------------------

  /// Hold the workers (accepted requests stay queued; producers see the
  /// ring fill). resume() releases them. close() overrides a pause.
  void pause() { queue_.set_paused(true); }
  void resume() { queue_.set_paused(false); }

  /// Stop accepting requests; already-accepted ones still drain (each is
  /// completed as scored / deadline-missed, never dropped). Idempotent.
  void close();

  // -- observability -------------------------------------------------------

  [[nodiscard]] ServiceStatsSnapshot stats() const { return stats_.snapshot(); }
  [[nodiscard]] std::size_t num_workers() const noexcept { return workers_.size(); }
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return queue_.capacity(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// The admission plane's service-time estimator (read-only outside the
  /// workers; exposed for observability and tests).
  [[nodiscard]] const admit::WaitPredictor& wait_predictor() const noexcept {
    return predictor_;
  }
  /// Account one transport-level fair-share throttle rejection (called by
  /// the network front-end so the snapshot a remote client reads includes
  /// throttling — net sits above serve in the layering DAG).
  void record_throttled() noexcept { stats_.on_throttled(); }

 private:
  SubmitStatus do_submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                         std::optional<ServiceClock::time_point> deadline, bool blocking);
  void worker_loop(std::size_t w);

  ServeConfig config_;
  ServiceStats stats_;  ///< before queue_, which counts admissions into it
  RequestQueue queue_;
  EpochSlot slot_;
  admit::WaitPredictor predictor_;
  std::atomic<std::uint64_t> next_epoch_id_{0};
  std::vector<hmd::RequestScorer> workers_;  ///< sized once; never reallocated while serving
  std::vector<std::thread> threads_;
};

}  // namespace shmd::serve
