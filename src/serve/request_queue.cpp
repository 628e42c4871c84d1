#include "serve/request_queue.hpp"

#include <stdexcept>
#include <utility>

namespace shmd::serve {

RequestQueue::RequestQueue(std::size_t capacity,
                           std::unique_ptr<const admit::AdmissionPolicy> policy,
                           ServiceStats* stats)
    : policy_(policy != nullptr ? std::move(policy)
                                : admit::make_policy(admit::PolicyKind::kFifo)),
      stats_(stats),
      ring_(capacity) {
  if (capacity == 0) throw std::invalid_argument("RequestQueue: capacity must be > 0");
}

SubmitStatus RequestQueue::try_push(const Request& request, Request* evicted) {
  if (evicted != nullptr) evicted->ticket = nullptr;
  {
    const util::MutexLock lock(mu_);
    if (closed_) return SubmitStatus::kClosed;
    if (count_ == ring_.size()) {
      if (evicted == nullptr || !policy_->evict_oldest_on_overflow()) {
        return SubmitStatus::kShed;
      }
      // Drop-oldest: the head request has waited longest and is the most
      // likely deadline casualty; hand it back to the caller (who owns
      // ticket completion) and admit the newcomer in its slot. The new
      // request still gets the NEXT seq — eviction changes queue
      // membership, never the (seed, admission order) function that
      // scores the survivors.
      *evicted = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      --count_;
    }
    append(request);
  }
  not_empty_.notify_one();
  return SubmitStatus::kAccepted;
}

SubmitStatus RequestQueue::push(const Request& request) {
  {
    const util::MutexLock lock(mu_);
    while (!closed_ && count_ == ring_.size()) not_full_.wait(mu_);
    if (closed_) return SubmitStatus::kClosed;
    append(request);
  }
  not_empty_.notify_one();
  return SubmitStatus::kAccepted;
}

void RequestQueue::append(const Request& request) {
  Request& slot = ring_[(head_ + count_) % ring_.size()];
  slot = request;
  slot.seq = next_seq_++;
  ++count_;
  if (stats_ != nullptr) stats_->on_enqueued();
}

Request RequestQueue::take_one() {
  // LIFO-under-overload pops the BACK of the ring: the newest request has
  // the most deadline budget left, so serving it first maximizes useful
  // completions while the dequeue-time expiry check reaps the starved
  // old ones. FIFO (and LIFO below its depth threshold) pops the head.
  if (policy_->pop_newest_first(count_, ring_.size())) {
    --count_;
    return ring_[(head_ + count_) % ring_.size()];
  }
  const Request out = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  return out;
}

bool RequestQueue::pop(Request& out) {
  {
    const util::MutexLock lock(mu_);
    // While paused, consumers sleep even with work queued (so overload is
    // observable); close() overrides pause so shutdown always drains.
    while (!closed_ && (count_ == 0 || paused_)) not_empty_.wait(mu_);
    if (count_ == 0) return false;  // closed and drained
    out = take_one();
  }
  not_full_.notify_one();
  return true;
}

std::size_t RequestQueue::pop_batch(std::vector<Request>& out, std::size_t max_batch) {
  out.clear();
  {
    const util::MutexLock lock(mu_);
    while (!closed_ && (count_ == 0 || paused_)) not_empty_.wait(mu_);
    if (count_ == 0) return 0;  // closed and drained
    const std::size_t n = count_ < max_batch ? count_ : max_batch;
    for (std::size_t k = 0; k < n; ++k) out.push_back(take_one());
  }
  // Up to max_batch slots opened at once: wake every blocked producer,
  // not just one.
  not_full_.notify_all();
  return out.size();
}

void RequestQueue::close() {
  {
    const util::MutexLock lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void RequestQueue::set_paused(bool paused) {
  {
    const util::MutexLock lock(mu_);
    paused_ = paused;
  }
  not_empty_.notify_all();
}

bool RequestQueue::closed() const {
  const util::MutexLock lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  const util::MutexLock lock(mu_);
  return count_;
}

}  // namespace shmd::serve
