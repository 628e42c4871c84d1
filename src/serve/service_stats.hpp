// ServiceStats: the observability surface of the always-on scoring
// service.
//
// A serving layer that sheds load must be able to prove it never *loses*
// load: every request a client hands to the service is accounted for as
// exactly one of scored / shed / deadline-missed. The plain counters are
// listed once, in kServiceCounters, which drives their lock-free storage,
// the snapshot read order and the Stats wire records. Latency histograms
// use power-of-two nanosecond buckets (one CLZ plus one atomic increment);
// only the per-epoch maps take a mutex. `snapshot()` returns a plain
// value type that monitoring code can diff across rounds.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "faultsim/fault_injector.hpp"
#include "util/counter_table.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace shmd::serve {

/// Fixed log₂-bucketed latency histogram: bucket b counts samples in
/// [2^b, 2^(b+1)) nanoseconds (bucket 0 additionally absorbs 0 ns). 48
/// buckets cover ~78 hours, far beyond any plausible request latency.
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 48;
  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;

  /// Latency (ns) at quantile `q` in [0, 1]: the geometric midpoint
  /// 2^(b+0.5) of the first bucket whose cumulative count reaches
  /// q * total — the unbiased point estimate under a log-uniform
  /// within-bucket assumption. Returns 0 when the histogram is empty.
  [[nodiscard]] double quantile_ns(double q) const noexcept;
  [[nodiscard]] double p50_ns() const noexcept { return quantile_ns(0.50); }
  [[nodiscard]] double p99_ns() const noexcept { return quantile_ns(0.99); }

  friend bool operator==(const LatencyHistogram&, const LatencyHistogram&) = default;
};

/// One coherent read of the service's counters (see ServiceStats).
struct ServiceStatsSnapshot {
  std::uint64_t enqueued = 0;         ///< requests accepted into the ring
  std::uint64_t shed = 0;             ///< try_submit rejections (queue full)
  std::uint64_t rejected_closed = 0;  ///< submissions after close()
  std::uint64_t scored = 0;           ///< completed with a verdict
  std::uint64_t deadline_missed = 0;  ///< expired in the queue, never scored
  std::uint64_t failed = 0;           ///< scoring threw (contract violation by caller)
  std::uint64_t epoch_swaps = 0;      ///< install_epoch() calls
  std::uint64_t verdict_queries = 0;  ///< decision-only (kVerdict) requests scored
  /// Admission-control rejections at the door (deadline already expired
  /// at submit, or predicted queue wait exceeds the deadline budget).
  /// Like `shed`, these were never enqueued — reported separately from
  /// the accounting identity.
  std::uint64_t rejected_on_admission = 0;
  /// Admitted requests dropped by a drop-oldest overflow policy. A
  /// terminal disposition of an ENQUEUED request, so it participates in
  /// in_flight() alongside scored/deadline_missed/failed.
  std::uint64_t evicted = 0;
  /// Subset of `scored` that completed AFTER the request's deadline —
  /// work the service did but the client could no longer use. Goodput
  /// (the headline serving metric) is scored - scored_late.
  std::uint64_t scored_late = 0;
  /// Fair-share throttle rejections at the transport (kThrottled Error
  /// frames sent by NetServer). Transport-level like `shed`: never
  /// enqueued, reported separately.
  std::uint64_t throttled = 0;
  LatencyHistogram latency;           ///< enqueue→completion, scored only
  /// Queue-wait of deadline-missed and evicted requests. Kept separate
  /// from `latency` so scored-path quantiles stay survivor-only, while
  /// overload analysis still sees how long the casualties sat.
  LatencyHistogram missed_wait;
  /// Fault statistics per detector epoch (keyed by DetectorEpoch::id) —
  /// the serving-layer equivalent of StochasticHmd::fault_stats(), split
  /// at reconfiguration boundaries. Only the newest
  /// ServiceStats::kMaxTrackedEpochs epochs are listed; older ones fold
  /// into `folded_faults`, so the map and the Stats payload stay bounded.
  std::map<std::uint64_t, faultsim::FaultStats> per_epoch_faults;
  faultsim::FaultStats folded_faults;  ///< aggregate of epochs aged out of the map
  std::uint64_t folded_epochs = 0;     ///< how many epochs were folded
  /// Decision-only query volume per detector epoch — the defender-side
  /// view of a black-box adversary's probing: how many kVerdict requests
  /// each operating point answered before it was rotated away. Bounded
  /// exactly like per_epoch_faults; aged-out epochs fold into
  /// `folded_verdict_queries` so no query is ever lost from the total.
  std::map<std::uint64_t, std::uint64_t> per_epoch_verdicts;
  std::uint64_t folded_verdict_queries = 0;  ///< verdict queries aged out of the map

  /// Requests accepted but not yet terminal (0 once the service drains).
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return enqueued - scored - deadline_missed - failed - evicted;
  }

  /// Requests scored within their deadline — the headline serving metric
  /// under overload (raw `scored` counts work; goodput counts USEFUL
  /// work).
  [[nodiscard]] std::uint64_t goodput() const noexcept { return scored - scored_late; }

  friend bool operator==(const ServiceStatsSnapshot&, const ServiceStatsSnapshot&) = default;
};

/// The service's counters in snapshot read order. The admission is
/// counted before a worker can see the request and every later bump is a
/// release, so reading terminal counters before `enqueued` (and
/// `scored_late` before `scored`) keeps in_flight() and goodput() >= 0.
inline constexpr auto kServiceCounters = std::to_array<util::CounterRow<ServiceStatsSnapshot>>({
    {"scored_late", &ServiceStatsSnapshot::scored_late},
    {"scored", &ServiceStatsSnapshot::scored},
    {"deadline_missed", &ServiceStatsSnapshot::deadline_missed},
    {"failed", &ServiceStatsSnapshot::failed},
    {"evicted", &ServiceStatsSnapshot::evicted},
    {"enqueued", &ServiceStatsSnapshot::enqueued},
    {"shed", &ServiceStatsSnapshot::shed},
    {"rejected_closed", &ServiceStatsSnapshot::rejected_closed},
    {"epoch_swaps", &ServiceStatsSnapshot::epoch_swaps},
    {"verdict_queries", &ServiceStatsSnapshot::verdict_queries},
    {"rejected_on_admission", &ServiceStatsSnapshot::rejected_on_admission},
    {"throttled", &ServiceStatsSnapshot::throttled},
});

/// The Stats frame payload: named records `u8 name length | name | u32
/// word count | u64 LE words`, one 1-word record per kServiceCounters row,
/// then the histograms, folded aggregates and per-epoch maps.
/// deserialize_snapshot skips unknown names (a newer server's extra
/// counter never breaks an older reader) and returns nullopt, never UB,
/// on a truncated record, a duplicate or missing known record, a word
/// count that does not fit its field, or trailing bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize(const ServiceStatsSnapshot& snap);
[[nodiscard]] std::optional<ServiceStatsSnapshot> deserialize_snapshot(
    std::span<const std::uint8_t> bytes);

/// Live, thread-safe counter block owned by the ScoringService.
class ServiceStats {
 public:
  /// Oldest epochs beyond this count fold into an aggregate (see
  /// ServiceStatsSnapshot::folded_faults). 256 × ~536 wire bytes keeps a
  /// worst-case serialized snapshot near 140 KiB, comfortably inside the
  /// frame layer's 1 MiB default payload limit.
  static constexpr std::size_t kMaxTrackedEpochs = 256;

  /// Called by the RequestQueue under its lock, before any worker can pop
  /// the request.
  void on_enqueued() noexcept { count<&ServiceStatsSnapshot::enqueued>(); }
  void on_shed() noexcept { count<&ServiceStatsSnapshot::shed>(); }
  void on_rejected_closed() noexcept { count<&ServiceStatsSnapshot::rejected_closed>(); }
  /// Record one deadline miss, with how long the request waited in the
  /// queue before a worker found it expired.
  void on_deadline_missed(std::uint64_t wait_ns) noexcept;
  void on_failed() noexcept {
    counters_.at<&ServiceStatsSnapshot::failed>().fetch_add(1, std::memory_order_release);
  }
  void on_epoch_swap() noexcept { count<&ServiceStatsSnapshot::epoch_swaps>(); }
  /// Admission-control rejection at the door (never enqueued).
  void on_rejected_admission() noexcept { count<&ServiceStatsSnapshot::rejected_on_admission>(); }
  /// Drop-oldest eviction of an admitted request, with how long the
  /// victim waited before being displaced (recorded into the missed-wait
  /// histogram: evictions and expiries are both queue-wait casualties).
  void on_evicted(std::uint64_t wait_ns) noexcept;
  /// Transport fair-share throttle rejection (kThrottled Error frame).
  void on_throttled() noexcept { count<&ServiceStatsSnapshot::throttled>(); }

  /// Record one completed scoring: latency plus the request's fault-stat
  /// delta attributed to the epoch that scored it. `late` marks a request
  /// that completed past its deadline (counts against goodput).
  void on_scored(std::uint64_t latency_ns, std::uint64_t epoch_id,
                 const faultsim::FaultStats& faults, bool late = false);

  /// Record one decision-only (kVerdict) request, attributed to the epoch
  /// that answered it. Called in addition to on_scored for such requests.
  void on_verdict_query(std::uint64_t epoch_id);

  [[nodiscard]] ServiceStatsSnapshot snapshot() const;

 private:
  /// A bump no snapshot read order depends on.
  template <std::uint64_t ServiceStatsSnapshot::*Member>
  void count() noexcept {
    counters_.at<Member>().fetch_add(1, std::memory_order_relaxed);
  }

  util::CounterBlock<kServiceCounters> counters_;
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets> latency_buckets_{};
  std::array<std::atomic<std::uint64_t>, LatencyHistogram::kBuckets> missed_wait_buckets_{};
  mutable util::Mutex faults_mu_;
  std::map<std::uint64_t, faultsim::FaultStats> per_epoch_faults_ SHMD_GUARDED_BY(faults_mu_);
  /// Aged-out epochs, aggregated.
  faultsim::FaultStats folded_faults_ SHMD_GUARDED_BY(faults_mu_);
  std::uint64_t folded_epochs_ SHMD_GUARDED_BY(faults_mu_) = 0;
  std::map<std::uint64_t, std::uint64_t> per_epoch_verdicts_ SHMD_GUARDED_BY(faults_mu_);
  std::uint64_t folded_verdict_queries_ SHMD_GUARDED_BY(faults_mu_) = 0;
};

}  // namespace shmd::serve
