#include "serve/scoring_service.hpp"

#include <stdexcept>
#include <utility>

#include "hmd/detector.hpp"
#include "runtime/thread_pool.hpp"

namespace shmd::serve {

ScoringService::ScoringService(DetectorEpoch initial_epoch, ServeConfig config)
    : config_(config),
      queue_(config.queue_capacity, admit::make_policy(config.admission_policy), &stats_),
      predictor_(config.ewma_alpha) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("ScoringService: max_batch must be >= 1");
  }
  const std::size_t n_workers = runtime::resolve_workers(config_.num_workers);
  workers_.resize(n_workers);
  (void)install_epoch(std::move(initial_epoch));
  threads_.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ScoringService::~ScoringService() {
  close();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::uint64_t ScoringService::install_epoch(DetectorEpoch epoch) {
  epoch.id = next_epoch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t id = epoch.id;
  slot_.install(std::make_shared<const DetectorEpoch>(std::move(epoch)));
  stats_.on_epoch_swap();
  return id;
}

SubmitStatus ScoringService::do_submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                                       std::optional<ServiceClock::time_point> deadline,
                                       bool blocking) {
  Request request;
  request.ticket = &ticket;
  request.features = &features;
  request.deadline = deadline.value_or(ServiceClock::time_point::max());
  request.enqueue_time = ServiceClock::now();
  // request.seq is stamped by the queue at admission (under its mutex),
  // so the k-th ACCEPTED request always carries seq k regardless of how
  // many submissions were shed in between — shedding patterns can never
  // perturb the fault stream of the requests that do get scored.
  // begin() must precede the push: once the request is in the ring a
  // worker may complete it at any moment, and a late reset would wipe the
  // result. On rejection no worker ever saw the request, so the ticket is
  // still exclusively ours and abort_submit() restores it to a completed,
  // immediately reusable state (outcome kPending / kRejected, empty
  // scores).
  ticket.begin();
  // Admission control: a request whose deadline is unmeetable must not
  // occupy a ring slot. Two tiers — (1) already expired at submit: reject
  // unconditionally on both paths (the dequeue-time expiry check would
  // only rediscover this after the request wasted queue space); (2)
  // predicted-wait rejection on the non-blocking overload path: with
  // `depth` requests ahead and the workers' EWMA service time, the
  // request would come up for scoring past its deadline, so admitting it
  // trades a slot a viable request could use for a guaranteed miss.
  if (deadline.has_value()) {
    bool doomed = request.enqueue_time >= request.deadline;
    if (!doomed && !blocking && config_.reject_on_arrival) {
      const std::uint64_t predicted_ns =
          predictor_.predicted_wait_ns(queue_.size(), workers_.size());
      doomed = request.enqueue_time + std::chrono::nanoseconds(predicted_ns) >
               request.deadline;
    }
    if (doomed) {
      ticket.abort_submit(RequestOutcome::kRejected);
      stats_.on_rejected_admission();
      return SubmitStatus::kRejected;
    }
  }
  Request evicted;  // ticket stays null unless a drop-oldest policy fires
  const SubmitStatus status =
      blocking ? queue_.push(request) : queue_.try_push(request, &evicted);
  switch (status) {
    case SubmitStatus::kAccepted:  // the queue counted the admission
      if (evicted.ticket != nullptr) {
        // The queue handed the displaced oldest request back to us; its
        // submitter may be wait()ing, so it completes here — exactly
        // once, as kRejected — with its queue wait recorded alongside the
        // expiry casualties.
        const ServiceClock::duration wait = request.enqueue_time - evicted.enqueue_time;
        evicted.ticket->latency_ = wait;
        stats_.on_evicted(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count()));
        evicted.ticket->complete(RequestOutcome::kRejected);
      }
      break;
    case SubmitStatus::kShed:
      ticket.abort_submit();
      stats_.on_shed();
      break;
    case SubmitStatus::kClosed:
      ticket.abort_submit();
      stats_.on_rejected_closed();
      break;
    case SubmitStatus::kRejected:
      break;  // unreachable: rejection is decided above, not by the queue
  }
  return status;
}

SubmitStatus ScoringService::submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                                    std::optional<ServiceClock::time_point> deadline) {
  return do_submit(features, ticket, deadline, /*blocking=*/true);
}

SubmitStatus ScoringService::try_submit(const trace::FeatureSet& features, ScoreTicket& ticket,
                                        std::optional<ServiceClock::time_point> deadline) {
  return do_submit(features, ticket, deadline, /*blocking=*/false);
}

std::vector<std::vector<double>> ScoringService::score_all(
    std::span<const trace::FeatureSet* const> batch) {
  std::vector<ScoreTicket> tickets(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (submit(*batch[i], tickets[i]) != SubmitStatus::kAccepted) {
      // Already-submitted tickets complete (the queue drains on close);
      // wait for them so their Request pointers do not dangle.
      for (std::size_t j = 0; j < i; ++j) tickets[j].wait();
      throw std::runtime_error("ScoringService::score_all: service is closed");
    }
  }
  std::vector<std::vector<double>> scores(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    tickets[i].wait();
    scores[i] = std::move(tickets[i].scores_);
  }
  return scores;
}

std::vector<bool> ScoringService::detect_all(std::span<const trace::FeatureSet* const> batch) {
  std::vector<ScoreTicket> tickets(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (submit(*batch[i], tickets[i]) != SubmitStatus::kAccepted) {
      for (std::size_t j = 0; j < i; ++j) tickets[j].wait();
      throw std::runtime_error("ScoringService::detect_all: service is closed");
    }
  }
  std::vector<bool> verdicts(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    tickets[i].wait();
    verdicts[i] = tickets[i].verdict();
  }
  return verdicts;
}

void ScoringService::close() {
  queue_.close();  // also overrides any pause, so the drain completes
}

void ScoringService::worker_loop(std::size_t w) {
  hmd::RequestScorer& scorer = workers_[w];
  std::vector<Request> batch;  // reused across batches: grows to max_batch once
  batch.reserve(config_.max_batch);
  while (queue_.pop_batch(batch, config_.max_batch) > 0) {
    // One epoch load per batch: every request drained together scores
    // under one coherent operating point — requests dequeued after a swap
    // score under the new epoch, exactly as in the unbatched path.
    const std::shared_ptr<const DetectorEpoch> epoch = slot_.current();
    // Triage: expire requests whose deadline passed in the queue and keep
    // the survivors, in admission order, at the front of `batch`.
    std::size_t live = 0;
    for (const Request& request : batch) {
      ScoreTicket& ticket = *request.ticket;
      ticket.epoch_id_ = epoch->id;
      ticket.threshold_ = epoch->threshold;
      const ServiceClock::time_point start = ServiceClock::now();
      if (start < request.deadline) {
        batch[live++] = request;
        continue;
      }
      const ServiceClock::duration wait = start - request.enqueue_time;
      ticket.latency_ = wait;
      stats_.on_deadline_missed(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count()));
      ticket.complete(RequestOutcome::kDeadlineMissed);
    }
    // Score each survivor as request `seq` of the service's seed: its
    // noise never depends on which worker or batch it landed in.
    // Service-time marker for the WaitPredictor: each request's share is
    // the gap between consecutive completion timestamps (the first gap
    // also absorbs this batch's triage cost — which is honest, since an
    // arriving request waits behind that too).
    ServiceClock::time_point service_mark = ServiceClock::now();
    for (std::size_t i = 0; i < live; ++i) {
      const Request& request = batch[i];
      ScoreTicket& ticket = *request.ticket;
      faultsim::FaultStats faults;
      bool ok = true;
      try {
        faults = scorer.score(epoch->network, request.features->windows(epoch->features),
                              epoch->error_rate, epoch->distribution, config_.seed, request.seq,
                              ticket.scores_);
        ticket.verdict_ =
            hmd::fraction_vote(ticket.scores_, epoch->threshold, epoch->vote_fraction);
      } catch (...) {
        // A worker must outlive any single bad request (a feature set
        // without the epoch's view, a window of the wrong width). The
        // ticket still completes — exactly once — with kFailed.
        ticket.scores_.clear();
        ok = false;
      }
      const ServiceClock::time_point end = ServiceClock::now();
      ticket.latency_ = end - request.enqueue_time;
      predictor_.record_service_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - service_mark).count()));
      service_mark = end;
      if (ok) {
        // A request that finishes past its deadline still returns its
        // scores (the work is done), but counts against goodput.
        const bool late = end > request.deadline;
        stats_.on_scored(static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 end - request.enqueue_time)
                                 .count()),
                         epoch->id, faults, late);
        // Decision-only traffic is the attack surface: count it against
        // the operating point that answered, so the defender can read
        // hostile query volume per epoch off the snapshot.
        if (ticket.decision_only_) stats_.on_verdict_query(epoch->id);
        ticket.complete(RequestOutcome::kScored);
      } else {
        stats_.on_failed();
        ticket.complete(RequestOutcome::kFailed);
      }
    }
  }
}

}  // namespace shmd::serve
