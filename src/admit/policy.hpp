// AdmissionPolicy: pluggable overload behavior for the serving queue.
//
// The policy decides what happens at the two moments where the bounded
// ring has to make a choice under pressure:
//
//   * overflow (try_push on a full ring): shed the NEWCOMER (FIFO
//     baseline — today's behavior), or evict the OLDEST admitted request
//     to make room (drop-oldest). Under overload the oldest waiter is
//     the request most likely to blow its deadline anyway, so evicting
//     it trades a near-certain deadline miss for a fresh request that
//     still has budget.
//
//   * dequeue order: front of the ring (FIFO), or the BACK when the
//     queue is deeper than half its capacity (LIFO-under-overload). LIFO
//     under overload is the classic Wellons/Nichols trick: the newest
//     request is the one whose deadline is furthest away, so serving it
//     first maximizes the fraction of responses that are still useful;
//     the old requests it starves were going to miss anyway and get
//     reaped by the dequeue-time expiry check.
//
// Determinism: none of this perturbs scores. Each request's fault stream
// is anchored to the admission sequence number stamped under the queue
// lock at push time (hmd::request_stream(seed, seq)), so a request scores
// bit-identically whether it was popped first or last, batched or alone.
// Policies change WHICH requests get scored (membership), never what
// score a surviving request receives — the fixed-seed score-hash CI
// check runs under every policy and must agree on the requests all
// policies admit. When the offered load is below capacity every policy
// admits everything in the same order, so the hashes are bit-identical
// across policies too (that is the CI gate).
//
// Thread safety: policy methods are called by RequestQueue with the
// queue mutex held; implementations are stateless and const.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace shmd::admit {

enum class PolicyKind {
  kFifo,        ///< Shed newcomers on overflow, pop oldest first (baseline).
  kDropOldest,  ///< Evict the oldest admitted request to admit the newcomer.
  kLifo,        ///< Pop newest first while the queue is more than half full.
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  [[nodiscard]] virtual PolicyKind kind() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// On a full ring: true → the caller evicts the oldest admitted
  /// request and admits the newcomer; false → the newcomer is shed.
  [[nodiscard]] virtual bool evict_oldest_on_overflow() const noexcept = 0;

  /// Dequeue order: true → pop from the back of the ring (newest first)
  /// given the current depth; false → pop from the front (FIFO).
  [[nodiscard]] virtual bool pop_newest_first(std::size_t depth,
                                              std::size_t capacity) const noexcept = 0;
};

/// Factory for the built-in policies. Never returns null.
[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind);

/// Maps "fifo" | "drop-oldest" | "lifo" to a kind; nullopt on anything else.
[[nodiscard]] std::optional<PolicyKind> parse_policy(std::string_view name);

/// Canonical CLI/JSON name for a kind ("fifo", "drop-oldest", "lifo").
[[nodiscard]] std::string_view policy_name(PolicyKind kind) noexcept;

}  // namespace shmd::admit
