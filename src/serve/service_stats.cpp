#include "serve/service_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>

namespace shmd::serve {

namespace {

std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns == 0) return 0;
  const std::size_t b = static_cast<std::size_t>(std::bit_width(ns)) - 1;
  return b < LatencyHistogram::kBuckets ? b : LatencyHistogram::kBuckets - 1;
}

void add(faultsim::FaultStats& into, const faultsim::FaultStats& f) { into.merge(f); }
void add(std::uint64_t& into, std::uint64_t n) { into += n; }

// Bounds a per-epoch map, which a moving-target service would otherwise
// grow forever: folds all but the newest kMaxTrackedEpochs entries into
// `folded`, losing no count, and returns how many epochs it folded.
template <class Value>
std::uint64_t fold_oldest(std::map<std::uint64_t, Value>& by_epoch, Value& folded) {
  std::uint64_t n = 0;
  for (; by_epoch.size() > ServiceStats::kMaxTrackedEpochs; ++n) {
    add(folded, by_epoch.begin()->second);
    by_epoch.erase(by_epoch.begin());
  }
  return n;
}

constexpr std::size_t kFaultWords =
    2 + static_cast<std::size_t>(faultsim::BitFaultDistribution::kBits);

// Explicit little-endian byte encoding: the wire format must not depend
// on host endianness or struct layout.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le(std::span<const std::uint8_t> in, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

void append_faults(std::vector<std::uint64_t>& words, const faultsim::FaultStats& f) {
  words.insert(words.end(), {f.operations, f.faults});
  words.insert(words.end(), f.bit_flips.begin(), f.bit_flips.end());
}

faultsim::FaultStats get_faults(std::span<const std::uint64_t> words) {
  faultsim::FaultStats f;
  f.operations = words[0];
  f.faults = words[1];
  std::copy_n(words.begin() + 2, f.bit_flips.size(), f.bit_flips.begin());
  return f;
}

}  // namespace

double LatencyHistogram::quantile_ns(double q) const noexcept {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += static_cast<double>(counts[b]);
    if (cumulative >= target && counts[b] > 0) {
      // Geometric midpoint of [2^b, 2^(b+1)): sqrt(2^b * 2^(b+1)).
      return std::exp2(static_cast<double>(b) + 0.5);
    }
  }
  return std::exp2(static_cast<double>(kBuckets) - 0.5);
}

void ServiceStats::on_deadline_missed(std::uint64_t wait_ns) noexcept {
  counters_.at<&ServiceStatsSnapshot::deadline_missed>().fetch_add(1, std::memory_order_release);
  missed_wait_buckets_[bucket_of(wait_ns)].fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::on_evicted(std::uint64_t wait_ns) noexcept {
  counters_.at<&ServiceStatsSnapshot::evicted>().fetch_add(1, std::memory_order_release);
  missed_wait_buckets_[bucket_of(wait_ns)].fetch_add(1, std::memory_order_relaxed);
}

void ServiceStats::on_scored(std::uint64_t latency_ns, std::uint64_t epoch_id,
                             const faultsim::FaultStats& faults, bool late) {
  // scored before scored_late, both release: snapshot() reads them in reverse.
  counters_.at<&ServiceStatsSnapshot::scored>().fetch_add(1, std::memory_order_release);
  if (late) {
    counters_.at<&ServiceStatsSnapshot::scored_late>().fetch_add(1, std::memory_order_release);
  }
  latency_buckets_[bucket_of(latency_ns)].fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(faults_mu_);
  per_epoch_faults_[epoch_id].merge(faults);
  folded_epochs_ += fold_oldest(per_epoch_faults_, folded_faults_);
}

void ServiceStats::on_verdict_query(std::uint64_t epoch_id) {
  counters_.at<&ServiceStatsSnapshot::verdict_queries>().fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(faults_mu_);
  ++per_epoch_verdicts_[epoch_id];
  (void)fold_oldest(per_epoch_verdicts_, folded_verdict_queries_);
}

ServiceStatsSnapshot ServiceStats::snapshot() const {
  ServiceStatsSnapshot snap;
  counters_.load_into(snap);  // in kServiceCounters order, which is what keeps in_flight() sane
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    snap.latency.counts[b] = latency_buckets_[b].load(std::memory_order_relaxed);
    snap.latency.total += snap.latency.counts[b];
    snap.missed_wait.counts[b] = missed_wait_buckets_[b].load(std::memory_order_relaxed);
    snap.missed_wait.total += snap.missed_wait.counts[b];
  }
  {
    const util::MutexLock lock(faults_mu_);
    snap.per_epoch_faults = per_epoch_faults_;
    snap.folded_faults = folded_faults_;
    snap.folded_epochs = folded_epochs_;
    snap.per_epoch_verdicts = per_epoch_verdicts_;
    snap.folded_verdict_queries = folded_verdict_queries_;
  }
  return snap;
}

std::vector<std::uint8_t> serialize(const ServiceStatsSnapshot& snap) {
  std::vector<std::uint8_t> out;
  const auto record = [&out](std::string_view name, std::span<const std::uint64_t> words) {
    out.push_back(static_cast<std::uint8_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    put_le(out, words.size(), 4);
    for (const std::uint64_t v : words) put_le(out, v, 8);
  };
  for (const auto& row : kServiceCounters) record(row.name, {&(snap.*row.member), 1});
  record("latency", snap.latency.counts);
  record("missed_wait", snap.missed_wait.counts);
  record("folded_epochs", {&snap.folded_epochs, 1});
  record("folded_verdict_queries", {&snap.folded_verdict_queries, 1});
  std::vector<std::uint64_t> words;
  append_faults(words, snap.folded_faults);
  record("folded_faults", words);
  words.clear();
  for (const auto& [epoch_id, faults] : snap.per_epoch_faults) {
    words.push_back(epoch_id);
    append_faults(words, faults);
  }
  record("per_epoch_faults", words);
  words.clear();
  for (const auto& [epoch_id, count] : snap.per_epoch_verdicts) {
    words.insert(words.end(), {epoch_id, count});
  }
  record("per_epoch_verdicts", words);
  return out;
}

std::optional<ServiceStatsSnapshot> deserialize_snapshot(std::span<const std::uint8_t> bytes) {
  // Split into records by name, checking every length against the
  // remaining bytes before using it.
  std::map<std::string, std::vector<std::uint64_t>, std::less<>> records;
  while (!bytes.empty()) {
    const std::size_t name_size = bytes[0];
    if (bytes.size() - 1 < name_size + 4) return std::nullopt;
    std::string name(bytes.begin() + 1, bytes.begin() + 1 + static_cast<std::ptrdiff_t>(name_size));
    const std::uint64_t n = get_le(bytes.subspan(1 + name_size), 4);
    bytes = bytes.subspan(1 + name_size + 4);
    if (n > bytes.size() / 8) return std::nullopt;
    std::vector<std::uint64_t> words(n);
    for (std::size_t i = 0; i < n; ++i) words[i] = get_le(bytes.subspan(8 * i), 8);
    bytes = bytes.subspan(8 * n);
    if (!records.emplace(std::move(name), std::move(words)).second) return std::nullopt;
  }
  // Unknown names are skipped; a known record must be present with exactly
  // `size` words (per-epoch maps: a multiple). A misfit reads as zeros.
  bool ok = true;
  static constexpr std::array<std::uint64_t, kFaultWords> kZeros{};
  const auto take = [&](std::string_view name, std::size_t size, bool per_epoch = false) {
    const auto it = records.find(name);
    const std::size_t n = it == records.end() ? 0 : it->second.size();
    const bool fits = it != records.end() && (per_epoch ? n % size == 0 : n == size);
    ok = ok && fits;
    return fits ? std::span<const std::uint64_t>(it->second)
                : std::span<const std::uint64_t>(kZeros).first(per_epoch ? 0 : size);
  };
  const auto histogram = [&](std::string_view name, LatencyHistogram& hist) {
    const auto words = take(name, LatencyHistogram::kBuckets);
    std::copy(words.begin(), words.end(), hist.counts.begin());
    hist.total = std::accumulate(words.begin(), words.end(), std::uint64_t{0});
  };
  ServiceStatsSnapshot snap;
  for (const auto& row : kServiceCounters) snap.*row.member = take(row.name, 1)[0];
  histogram("latency", snap.latency);
  histogram("missed_wait", snap.missed_wait);
  snap.folded_epochs = take("folded_epochs", 1)[0];
  snap.folded_verdict_queries = take("folded_verdict_queries", 1)[0];
  snap.folded_faults = get_faults(take("folded_faults", kFaultWords));
  const auto faults = take("per_epoch_faults", 1 + kFaultWords, true);
  for (std::size_t i = 0; i < faults.size(); i += 1 + kFaultWords) {
    ok = snap.per_epoch_faults.emplace(faults[i], get_faults(faults.subspan(i + 1))).second && ok;
  }
  const auto verdicts = take("per_epoch_verdicts", 2, true);
  for (std::size_t i = 0; i < verdicts.size(); i += 2) {
    ok = snap.per_epoch_verdicts.emplace(verdicts[i], verdicts[i + 1]).second && ok;
  }
  if (!ok) return std::nullopt;
  return snap;
}

}  // namespace shmd::serve
