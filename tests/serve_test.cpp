// Tests for the always-on scoring service: request-anchored determinism
// (same seed => bit-identical scores through the MPMC queue under ANY
// worker count), overload shedding with exact accounting (every
// submission terminal as exactly one of scored / shed / deadline-missed),
// and epoch-based reconfiguration that neither stalls nor tears in-flight
// requests. The Serve* suites also run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hmd/deployment.hpp"
#include "hmd/detector.hpp"
#include "hmd/stochastic_hmd.hpp"
#include "nn/network.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/scoring_service.hpp"

namespace shmd::serve {
namespace {

using namespace std::chrono_literals;

const trace::FeatureConfig kFc{trace::FeatureView::kInsnCategory, 2048};

nn::Network make_net() {
  const std::vector<std::size_t> topo{8, 12, 1};
  return nn::Network(topo, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 1);
}

trace::FeatureSet make_features(std::uint64_t seed, std::size_t n_windows = 4) {
  rng::Xoshiro256ss gen(seed);
  std::vector<std::vector<double>> windows(n_windows, std::vector<double>(8));
  for (auto& window : windows) {
    for (double& x : window) x = gen.uniform01();
  }
  trace::FeatureSet fs;
  fs.put(kFc, std::move(windows));
  return fs;
}

std::vector<trace::FeatureSet> make_workload(std::size_t n) {
  std::vector<trace::FeatureSet> workload;
  workload.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workload.push_back(make_features(100 + i));
  return workload;
}

std::vector<const trace::FeatureSet*> as_pointers(const std::vector<trace::FeatureSet>& v) {
  std::vector<const trace::FeatureSet*> ptrs;
  ptrs.reserve(v.size());
  for (const auto& fs : v) ptrs.push_back(&fs);
  return ptrs;
}

DetectorEpoch test_epoch(double error_rate) {
  const hmd::StochasticHmd det(make_net(), kFc, error_rate);
  return make_epoch(det);
}

// ------------------------------------------------------------ RequestQueue

TEST(ServeQueue, RejectsZeroCapacity) {
  EXPECT_THROW(RequestQueue(0), std::invalid_argument);
}

TEST(ServeQueue, FifoOrderAndAdmissionSeq) {
  RequestQueue q(4);
  const trace::FeatureSet fs = make_features(1);
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.features = &fs;
    ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  }
  EXPECT_EQ(q.size(), 3u);
  Request out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.seq, i);  // admission order, stamped by the queue
  }
}

TEST(ServeQueue, ShedDoesNotConsumeSeq) {
  // Shed submissions must not perturb the fault streams of accepted ones:
  // the k-th ACCEPTED request carries seq k no matter how many rejections
  // happened in between.
  RequestQueue q(2);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  EXPECT_EQ(q.try_push(r), SubmitStatus::kShed);  // full
  Request out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 0u);
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 1u);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 2u);  // the shed attempt left no gap
}

TEST(ServeQueue, CloseRejectsNewAndDrainsOld) {
  RequestQueue q(4);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.push(r), SubmitStatus::kAccepted);
  ASSERT_EQ(q.push(r), SubmitStatus::kAccepted);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.try_push(r), SubmitStatus::kClosed);
  EXPECT_EQ(q.push(r), SubmitStatus::kClosed);
  Request out;
  EXPECT_TRUE(q.pop(out));  // accepted requests survive close()
  EXPECT_TRUE(q.pop(out));
  EXPECT_FALSE(q.pop(out));  // closed AND drained
}

TEST(ServeQueue, PopBatchDrainsFifoWithoutWaitingForAFullBatch) {
  RequestQueue q(8);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  for (int i = 0; i < 5; ++i) ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  std::vector<Request> out;
  // A batch pop takes what is queued right now, up to max_batch — it must
  // never block waiting to fill the batch.
  ASSERT_EQ(q.pop_batch(out, 3), 3u);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(out[i].seq, i);  // FIFO within the batch
  ASSERT_EQ(q.pop_batch(out, 8), 2u);  // partial: only 2 queued
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[1].seq, 4u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQueue, PopBatchSeqStampingUnaffectedByBatchSize) {
  // seq is stamped at ADMISSION, not at dequeue: however the requests are
  // later grouped into batches, the k-th accepted request carries seq k.
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  std::vector<std::uint64_t> seqs_batched;
  std::vector<std::uint64_t> seqs_unbatched;
  for (const std::size_t max_batch : {std::size_t{3}, std::size_t{1}}) {
    RequestQueue q(8);
    for (int i = 0; i < 6; ++i) ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
    std::vector<std::uint64_t>& seqs = max_batch == 1 ? seqs_unbatched : seqs_batched;
    std::vector<Request> out;
    while (q.size() > 0) {
      ASSERT_GT(q.pop_batch(out, max_batch), 0u);
      for (const Request& popped : out) seqs.push_back(popped.seq);
    }
  }
  EXPECT_EQ(seqs_batched, seqs_unbatched);
  EXPECT_EQ(seqs_batched, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ServeQueue, PopBatchPartialBatchOnCloseAndDrain) {
  RequestQueue q(8);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  for (int i = 0; i < 3; ++i) ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  q.close();
  std::vector<Request> out;
  ASSERT_EQ(q.pop_batch(out, 8), 3u);  // accepted requests survive close()
  EXPECT_EQ(q.pop_batch(out, 8), 0u);  // closed AND drained
  EXPECT_TRUE(out.empty());
}

TEST(ServeQueue, PopBatchBlocksWhilePaused) {
  RequestQueue q(4);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  q.set_paused(true);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    std::vector<Request> out;
    EXPECT_EQ(q.pop_batch(out, 4), 1u);
    popped.store(true, std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(popped.load(std::memory_order_relaxed))
      << "pop_batch must block while the queue is paused, even with work queued";
  q.set_paused(false);
  consumer.join();
  EXPECT_TRUE(popped.load(std::memory_order_relaxed));
}

TEST(ServeQueue, CloseOverridesPause) {
  RequestQueue q(2);
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  q.set_paused(true);
  q.close();
  Request out;
  EXPECT_TRUE(q.pop(out));  // shutdown drains even through a pause
  EXPECT_FALSE(q.pop(out));
}

// ------------------------------------------------------------- DetectorEpoch

TEST(ServeEpoch, MakeEpochSnapshotsDetectorOperatingPoint) {
  const hmd::StochasticHmd det(make_net(), kFc, 0.25);
  const DetectorEpoch epoch = make_epoch(det, 0.6, 0.4);
  EXPECT_EQ(epoch.id, 0u);  // not yet installed
  EXPECT_DOUBLE_EQ(epoch.error_rate, 0.25);
  EXPECT_DOUBLE_EQ(epoch.threshold, 0.6);
  EXPECT_DOUBLE_EQ(epoch.vote_fraction, 0.4);
  EXPECT_EQ(epoch.features, kFc);
  EXPECT_EQ(epoch.network.mac_count(), det.network().mac_count());
}

TEST(ServeEpoch, MakeEpochFromBundleUsesCalibration) {
  hmd::DeploymentBundle bundle{make_net(), kFc, 0.15, {{40.0, -100.0}, {60.0, -200.0}}};
  const DetectorEpoch epoch = make_epoch(bundle, 50.0);
  EXPECT_DOUBLE_EQ(epoch.offset_mv, -150.0);  // linear interpolation at 50 °C
  EXPECT_DOUBLE_EQ(epoch.error_rate, 0.15);   // no volt model: bundle target er
  EXPECT_EQ(epoch.features, kFc);
}

TEST(ServeEpoch, SlotSwapKeepsReaderSnapshotAlive) {
  EpochSlot slot;
  auto first = std::make_shared<const DetectorEpoch>(test_epoch(0.1));
  slot.install(first);
  const std::shared_ptr<const DetectorEpoch> reader = slot.current();
  slot.install(std::make_shared<const DetectorEpoch>(test_epoch(0.9)));
  // The reader's snapshot is untouched by the swap (RCU semantics)...
  EXPECT_DOUBLE_EQ(reader->error_rate, 0.1);
  // ...while new readers see the new epoch.
  EXPECT_DOUBLE_EQ(slot.current()->error_rate, 0.9);
}

// -------------------------------------------------------------- ServiceStats

TEST(ServeQueue, BlockedProducersAllWakeOnClose) {
  RequestQueue q(1);
  const trace::FeatureSet fs = make_features(1);
  Request fill;
  fill.features = &fs;
  ASSERT_EQ(q.try_push(fill), SubmitStatus::kAccepted);  // the ring is now full

  std::atomic<int> woke{0};
  std::vector<std::thread> producers;
  producers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    producers.emplace_back([&q, &fs, &woke] {
      Request r;
      r.features = &fs;
      EXPECT_EQ(q.push(r), SubmitStatus::kClosed);  // blocks until close()
      woke.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(woke.load(), 0) << "producers must actually block on the full ring";
  q.close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(woke.load(), 3) << "close() must wake every blocked producer";
  EXPECT_EQ(q.size(), 1u) << "the accepted request still drains";
}

// Byte offset of the record named `name` in a serialized snapshot (its
// name-length byte), found by walking the record headers
// `u8 name length | name | u32 word count | u64 words`.
std::size_t record_at(const std::vector<std::uint8_t>& wire, std::string_view name) {
  std::size_t at = 0;
  while (at < wire.size()) {
    const std::size_t name_size = wire[at];
    const std::string here(wire.begin() + static_cast<std::ptrdiff_t>(at + 1),
                           wire.begin() + static_cast<std::ptrdiff_t>(at + 1 + name_size));
    if (here == name) return at;
    std::size_t words = 0;
    for (std::size_t i = 0; i < 4; ++i) words |= std::size_t{wire[at + 1 + name_size + i]} << (8 * i);
    at += 1 + name_size + 4 + 8 * words;
  }
  ADD_FAILURE() << "no record named " << name;
  return wire.size();
}

// Byte size of the record starting at `at`.
std::size_t record_size(const std::vector<std::uint8_t>& wire, std::size_t at) {
  const std::size_t name_size = wire[at];
  std::size_t words = 0;
  for (std::size_t i = 0; i < 4; ++i) words |= std::size_t{wire[at + 1 + name_size + i]} << (8 * i);
  return 1 + name_size + 4 + 8 * words;
}

void append_record(std::vector<std::uint8_t>& wire, std::string_view name,
                   const std::vector<std::uint64_t>& words) {
  wire.push_back(static_cast<std::uint8_t>(name.size()));
  wire.insert(wire.end(), name.begin(), name.end());
  for (std::size_t i = 0; i < 4; ++i) wire.push_back(static_cast<std::uint8_t>(words.size() >> (8 * i)));
  for (const std::uint64_t w : words) {
    for (std::size_t i = 0; i < 8; ++i) wire.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
  }
}

std::vector<std::uint8_t> without_record(std::vector<std::uint8_t> wire, std::string_view name) {
  const std::size_t at = record_at(wire, name);
  const auto first = wire.begin() + static_cast<std::ptrdiff_t>(at);
  wire.erase(first, first + static_cast<std::ptrdiff_t>(record_size(wire, at)));
  return wire;
}

TEST(ServeStats, SnapshotSerializationRoundTrips) {
  ServiceStatsSnapshot snap;
  std::uint64_t value = 100;
  for (const auto& row : kServiceCounters) snap.*row.member = value++;  // all distinct
  snap.latency.counts[10] = 40;
  snap.latency.counts[11] = 50;
  snap.latency.total = 90;
  snap.missed_wait.counts[20] = 1;
  snap.missed_wait.total = 1;
  faultsim::FaultStats& f1 = snap.per_epoch_faults[1];
  f1.operations = 12345;
  f1.faults = 42;
  f1.bit_flips[0] = 20;
  f1.bit_flips[63] = 22;
  snap.per_epoch_faults[9].operations = 99;
  snap.folded_epochs = 4;
  snap.folded_faults.operations = 777;
  snap.folded_faults.faults = 5;
  snap.folded_faults.bit_flips[31] = 3;
  snap.per_epoch_verdicts[1] = 12;
  snap.per_epoch_verdicts[9] = 5;
  snap.folded_verdict_queries = 8;

  const std::vector<std::uint8_t> wire = serialize(snap);
  const std::optional<ServiceStatsSnapshot> back = deserialize_snapshot(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, snap);
}

TEST(ServeStats, DeserializeRejectsCorruptedInput) {
  ServiceStatsSnapshot snap;
  snap.scored = 5;
  snap.per_epoch_faults[1].operations = 10;
  snap.per_epoch_verdicts[1] = 3;
  const std::vector<std::uint8_t> wire = serialize(snap);
  ASSERT_TRUE(deserialize_snapshot(wire).has_value());

  std::vector<std::uint8_t> truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(deserialize_snapshot(truncated).has_value());

  std::vector<std::uint8_t> trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(deserialize_snapshot(trailing).has_value());

  // A hostile word count must be rejected before it drives reads or
  // allocation, in either per-epoch record.
  for (const std::string_view name : {"per_epoch_faults", "per_epoch_verdicts"}) {
    std::vector<std::uint8_t> hostile = wire;
    const std::size_t count_at = record_at(wire, name) + 1 + name.size();
    for (std::size_t i = 0; i < 4; ++i) hostile[count_at + i] = 0xFF;
    EXPECT_FALSE(deserialize_snapshot(hostile).has_value()) << name;
  }

  // A name length that runs past the end of the payload.
  std::vector<std::uint8_t> long_name = wire;
  long_name.push_back(200);
  long_name.push_back('x');
  EXPECT_FALSE(deserialize_snapshot(long_name).has_value());

  // Unknown records are skipped wherever they sit: a newer server's extra
  // counter never breaks an older reader.
  std::vector<std::uint8_t> newer = wire;
  append_record(newer, "counter_from_a_newer_server", {1, 2, 3});
  std::vector<std::uint8_t> newer_first;
  append_record(newer_first, "zz_unknown", {});
  newer_first.insert(newer_first.end(), wire.begin(), wire.end());
  for (const std::vector<std::uint8_t>& bytes : {newer, newer_first}) {
    const std::optional<ServiceStatsSnapshot> back = deserialize_snapshot(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, snap);
  }

  // A known name twice.
  std::vector<std::uint8_t> duplicate = wire;
  append_record(duplicate, "scored", {5});
  EXPECT_FALSE(deserialize_snapshot(duplicate).has_value());

  // A missing known record: a table counter and a non-counter record.
  EXPECT_FALSE(deserialize_snapshot(without_record(wire, "enqueued")).has_value());
  EXPECT_FALSE(deserialize_snapshot(without_record(wire, "missed_wait")).has_value());

  // Word counts that do not fit their field.
  std::vector<std::uint8_t> wide_counter = without_record(wire, "scored");
  append_record(wide_counter, "scored", {5, 0});
  EXPECT_FALSE(deserialize_snapshot(wide_counter).has_value());
  std::vector<std::uint8_t> short_histogram = without_record(wire, "latency");
  append_record(short_histogram, "latency",
                std::vector<std::uint64_t>(LatencyHistogram::kBuckets - 1));
  EXPECT_FALSE(deserialize_snapshot(short_histogram).has_value());
  std::vector<std::uint8_t> odd_verdicts = without_record(wire, "per_epoch_verdicts");
  append_record(odd_verdicts, "per_epoch_verdicts", {1, 3, 2});
  EXPECT_FALSE(deserialize_snapshot(odd_verdicts).has_value());

  EXPECT_FALSE(deserialize_snapshot({}).has_value());
}

TEST(ServeStats, SnapshotsNeverShowATerminalBeforeItsAdmission) {
  // A thread takes snapshots while 2 blocking submitters feed 2 workers.
  // The admission must be counted before any worker can see the request,
  // and the snapshot must read the terminal counters before `enqueued`
  // (and scored_late before scored), or in_flight() / goodput() wrap.
  ScoringService service(test_epoch(0.0), ServeConfig{.num_workers = 2, .queue_capacity = 16});
  std::vector<trace::FeatureSet> workload;
  for (std::uint64_t i = 0; i < 8; ++i) workload.push_back(make_features(200 + i, 1));
  std::atomic<bool> done{false};
  std::uint64_t snapshots = 0;
  std::uint64_t torn = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const ServiceStatsSnapshot snap = service.stats();
      ++snapshots;
      const std::uint64_t terminal =
          snap.scored + snap.deadline_missed + snap.failed + snap.evicted;
      if (terminal > snap.enqueued || snap.scored_late > snap.scored) ++torn;
    }
  });
  constexpr int kPerSubmitter = 20000;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<ScoreTicket> tickets(8);
      for (int i = 0; i < kPerSubmitter; ++i) {
        ScoreTicket& ticket = tickets[static_cast<std::size_t>(i) % tickets.size()];
        ticket.wait();
        // Every fourth request carries a tight deadline, so some score
        // late or expire in the queue.
        const auto deadline = i % 4 == 0 ? std::optional(ServiceClock::now() + 20us)
                                         : std::optional<ServiceClock::time_point>{};
        (void)service.submit(workload[static_cast<std::size_t>(i + t) % workload.size()],
                             ticket, deadline);
      }
      for (ScoreTicket& ticket : tickets) ticket.wait();
    });
  }
  for (std::thread& s : submitters) s.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(torn, 0u) << "of " << snapshots << " snapshots";
  const ServiceStatsSnapshot end = service.stats();
  EXPECT_EQ(end.enqueued + end.rejected_on_admission, 2u * kPerSubmitter);
  EXPECT_EQ(end.in_flight(), 0u);
}

TEST(ServeService, CompletionHookFiresOnCompleteAndOnReject) {
  ScoringService service(test_epoch(0.05), ServeConfig{.num_workers = 1, .queue_capacity = 1});
  const auto workload = make_workload(1);
  std::atomic<int> fired{0};
  ScoreTicket ticket;
  ticket.set_completion_hook(
      [](void* arg) noexcept {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1, std::memory_order_relaxed);
      },
      &fired);

  ASSERT_EQ(service.try_submit(workload[0], ticket), SubmitStatus::kAccepted);
  // The hook fires strictly AFTER the done-notification, so wait() alone
  // does not order it — poll the hook itself.
  while (fired.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  EXPECT_TRUE(ticket.done());
  EXPECT_EQ(ticket.outcome(), RequestOutcome::kScored);

  // Rejection path: the hook fires synchronously inside try_submit.
  service.pause();
  ScoreTicket filler;
  ASSERT_EQ(service.try_submit(workload[0], filler), SubmitStatus::kAccepted);
  EXPECT_EQ(service.try_submit(workload[0], ticket), SubmitStatus::kShed);
  EXPECT_EQ(fired.load(std::memory_order_relaxed), 2);
  EXPECT_TRUE(ticket.done()) << "a rejected ticket is immediately done again";

  service.resume();
  filler.wait();  // the worker must finish with `filler` before it leaves scope
}

TEST(ServeStats, HistogramQuantilesUseGeometricMidpoints) {
  ServiceStats stats;
  const faultsim::FaultStats none;
  for (int i = 0; i < 50; ++i) stats.on_scored(10, 1, none);    // bucket 3: [8, 16)
  for (int i = 0; i < 50; ++i) stats.on_scored(1500, 1, none);  // bucket 10: [1024, 2048)
  const LatencyHistogram hist = stats.snapshot().latency;
  EXPECT_EQ(hist.total, 100u);
  // Each quantile reports its bucket's geometric midpoint 2^(b+0.5) — the
  // upper edge overstated by up to 2x.
  EXPECT_DOUBLE_EQ(hist.p50_ns(), std::exp2(3.5));
  EXPECT_DOUBLE_EQ(hist.p99_ns(), std::exp2(10.5));
  // q = 0 lands in the first non-empty bucket, q = 1 in the last.
  EXPECT_DOUBLE_EQ(hist.quantile_ns(0.0), std::exp2(3.5));
  EXPECT_DOUBLE_EQ(hist.quantile_ns(1.0), std::exp2(10.5));
}

TEST(ServeStats, HistogramQuantileSingleBucketAndEmpty) {
  LatencyHistogram single;
  single.counts[5] = 7;  // every sample in [32, 64)
  single.total = 7;
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.quantile_ns(q), std::exp2(5.5)) << q;
  }
  const LatencyHistogram empty;
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(empty.quantile_ns(q), 0.0) << q;
  }
}

TEST(ServeStats, AccountingIdentityAndPerEpochFaults) {
  ServiceStats stats;
  faultsim::FaultStats delta;
  delta.operations = 10;
  delta.faults = 2;
  for (int i = 0; i < 5; ++i) stats.on_enqueued();
  stats.on_scored(100, 1, delta);
  stats.on_scored(100, 2, delta);
  stats.on_scored(100, 2, delta);
  stats.on_deadline_missed(3000);  // waited ~3 µs before expiring
  stats.on_failed();
  stats.on_shed();
  const ServiceStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.enqueued, 5u);
  EXPECT_EQ(snap.scored, 3u);
  EXPECT_EQ(snap.in_flight(), 0u);
  EXPECT_EQ(snap.shed, 1u);
  // The miss left its queue-wait in the second histogram — and nothing in
  // the scored-only latency histogram.
  EXPECT_EQ(snap.missed_wait.total, 1u);
  EXPECT_EQ(snap.missed_wait.counts[11], 1u);  // 3000 ns -> bucket [2048, 4096)
  EXPECT_EQ(snap.latency.total, 3u);
  ASSERT_EQ(snap.per_epoch_faults.size(), 2u);
  EXPECT_EQ(snap.per_epoch_faults.at(1).operations, 10u);
  EXPECT_EQ(snap.per_epoch_faults.at(2).operations, 20u);
  EXPECT_EQ(snap.per_epoch_faults.at(2).faults, 4u);
}

TEST(ServeStats, PerEpochFaultsAreBoundedAndFoldWithoutLoss) {
  // A moving-target service rolls epochs forever; the per-epoch map (and
  // with it the serialized Stats payload) must stay bounded, with aged-out
  // epochs folded into the aggregate so no fault count is ever lost.
  ServiceStats stats;
  faultsim::FaultStats delta;
  delta.operations = 3;
  delta.faults = 1;
  const std::uint64_t kEpochs = ServiceStats::kMaxTrackedEpochs + 40;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) stats.on_scored(100, e, delta);

  const ServiceStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.per_epoch_faults.size(), ServiceStats::kMaxTrackedEpochs);
  EXPECT_EQ(snap.folded_epochs, 40u);
  // The oldest epochs folded; the newest survive individually.
  EXPECT_EQ(snap.per_epoch_faults.count(1), 0u);
  EXPECT_EQ(snap.per_epoch_faults.count(kEpochs), 1u);
  faultsim::FaultStats total = snap.folded_faults;
  for (const auto& [id, faults] : snap.per_epoch_faults) total.merge(faults);
  EXPECT_EQ(total.operations, 3u * kEpochs);
  EXPECT_EQ(total.faults, kEpochs);
  // The bounded snapshot must serialize well inside the frame layer's
  // default payload limit no matter how long the service has been up.
  EXPECT_LT(serialize(snap).size(), 1024u * 1024u / 4);
}

// ------------------------------------------------- determinism (criterion a)

TEST(ServeService, SameSeedIsBitIdenticalUnderAnyWorkerCount) {
  const std::vector<trace::FeatureSet> workload = make_workload(16);
  const auto batch = as_pointers(workload);
  ServeConfig config;
  config.seed = 42;
  config.queue_capacity = 64;

  std::vector<std::vector<std::vector<double>>> runs;
  for (std::size_t workers : {1u, 2u, 3u}) {
    config.num_workers = workers;
    ScoringService service(test_epoch(0.3), config);
    runs.push_back(service.score_all(batch));
  }
  // Fault streams are anchored to the request's admission seq, not to the
  // worker that happens to dequeue it: scores are a pure function of
  // (seed, submission order).
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);

  // Different seed => different fault noise.
  config.num_workers = 2;
  config.seed = 43;
  ScoringService other(test_epoch(0.3), config);
  EXPECT_NE(other.score_all(batch), runs[0]);
}

TEST(ServeService, BatchedScoresBitIdenticalToUnbatched) {
  // The tentpole contract: cross-request batching is a pure throughput
  // optimization. For a fixed (seed, admission order), scores must be
  // bit-identical for ANY max_batch and ANY worker count — the per-request
  // fault stream is re-anchored from (seed, seq) at each request boundary
  // within a tile, so batch composition can never leak into results.
  const std::vector<trace::FeatureSet> workload = make_workload(24);
  const auto batch = as_pointers(workload);
  ServeConfig config;
  config.seed = 42;
  config.queue_capacity = 64;

  std::vector<std::vector<std::vector<double>>> runs;
  const std::pair<std::size_t, std::size_t> shapes[] = {{1, 1}, {1, 16}, {3, 16}, {2, 5}};
  for (const auto& [workers, max_batch] : shapes) {
    config.num_workers = workers;
    config.max_batch = max_batch;
    ScoringService service(test_epoch(0.3), config);
    runs.push_back(service.score_all(batch));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0], runs[i]) << "workers=" << shapes[i].first
                                << " max_batch=" << shapes[i].second;
  }
}

TEST(ServeService, RejectsZeroMaxBatch) {
  ServeConfig config;
  config.max_batch = 0;
  EXPECT_THROW(ScoringService(test_epoch(0.1), config), std::invalid_argument);
}

TEST(ServeService, ConsecutiveRoundsRerollTheBoundary) {
  const std::vector<trace::FeatureSet> workload = make_workload(12);
  const auto batch = as_pointers(workload);
  ServeConfig config;
  config.num_workers = 2;
  config.seed = 7;
  ScoringService service(test_epoch(0.3), config);
  const auto round1 = service.score_all(batch);
  // The admission counter keeps advancing, so the next round draws fresh
  // fault noise — the per-round moving target survives the queue path.
  EXPECT_NE(service.score_all(batch), round1);
}

TEST(ServeService, ZeroErrorRateMatchesNominalScores) {
  const std::vector<trace::FeatureSet> workload = make_workload(6);
  const auto batch = as_pointers(workload);
  const hmd::StochasticHmd det(make_net(), kFc, 0.0);
  ServeConfig config;
  config.num_workers = 2;
  ScoringService service(make_epoch(det), config);
  const auto scores = service.score_all(batch);
  ASSERT_EQ(scores.size(), batch.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], det.window_scores_nominal(*batch[i])) << i;
  }
}

TEST(ServeService, VerdictMatchesFractionVoteOverScores) {
  const std::vector<trace::FeatureSet> workload = make_workload(8);
  ServeConfig config;
  config.num_workers = 2;
  config.seed = 11;
  ScoringService scoring(test_epoch(0.2), config);
  ScoringService detecting(test_epoch(0.2), config);  // same seed: same scores
  const auto scores = scoring.score_all(as_pointers(workload));
  const auto verdicts = detecting.detect_all(as_pointers(workload));
  ASSERT_EQ(verdicts.size(), scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(verdicts[i], hmd::fraction_vote(scores[i], 0.5,
                                              hmd::Detector::kDefaultVoteFraction))
        << i;
  }
}

// ------------------------------------- overload accounting (criterion b)

TEST(ServeService, ShedsAtCapacityAndAccountsEveryRequest) {
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  ScoringService service(test_epoch(0.1), config);
  service.pause();  // workers hold; the ring fills deterministically

  std::vector<ScoreTicket> tickets(7);
  std::size_t accepted = 0;
  std::size_t shed = 0;
  for (auto& ticket : tickets) {
    const SubmitStatus status = service.try_submit(fs, ticket);
    if (status == SubmitStatus::kAccepted) {
      ++accepted;
    } else {
      ASSERT_EQ(status, SubmitStatus::kShed);
      ++shed;
      // A shed ticket is immediately done and reusable — waiting on it
      // must not hang.
      EXPECT_TRUE(ticket.done());
      EXPECT_EQ(ticket.outcome(), RequestOutcome::kPending);
    }
  }
  EXPECT_EQ(accepted, 4u);  // exactly the ring capacity
  EXPECT_EQ(shed, 3u);
  EXPECT_EQ(service.queue_depth(), 4u);

  service.resume();
  for (auto& ticket : tickets) ticket.wait();

  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.enqueued, 4u);
  EXPECT_EQ(snap.scored, 4u);
  EXPECT_EQ(snap.shed, 3u);
  EXPECT_EQ(snap.deadline_missed, 0u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.in_flight(), 0u);  // every submission reached a terminal state
  EXPECT_EQ(snap.latency.total, 4u);
}

TEST(ServeService, ExpiredRequestsAreDeadlineMissedNotScored) {
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  ScoringService service(test_epoch(0.1), config);
  service.pause();

  std::vector<ScoreTicket> tickets(3);
  const auto deadline = ServiceClock::now() + 2ms;
  for (auto& ticket : tickets) {
    ASSERT_EQ(service.try_submit(fs, ticket, deadline), SubmitStatus::kAccepted);
  }
  std::this_thread::sleep_for(10ms);  // let every deadline lapse while queued
  service.resume();
  for (auto& ticket : tickets) {
    ticket.wait();
    EXPECT_EQ(ticket.outcome(), RequestOutcome::kDeadlineMissed);
    EXPECT_TRUE(ticket.scores().empty());
  }
  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.enqueued, 3u);
  EXPECT_EQ(snap.deadline_missed, 3u);
  EXPECT_EQ(snap.scored, 0u);
  EXPECT_EQ(snap.in_flight(), 0u);
  // Missed requests leave their queue-wait in the second histogram (they
  // waited >= 10ms here), keeping the scored-only latency histogram clean.
  EXPECT_EQ(snap.missed_wait.total, 3u);
  EXPECT_GE(snap.missed_wait.p50_ns(), 1e7 / 2);
  EXPECT_EQ(snap.latency.total, 0u);
}

TEST(ServeService, CloseRejectsNewWorkAndDrainsAccepted) {
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  ScoringService service(test_epoch(0.1), config);

  ScoreTicket before;
  ASSERT_EQ(service.submit(fs, before), SubmitStatus::kAccepted);
  service.close();
  ScoreTicket after;
  EXPECT_EQ(service.submit(fs, after), SubmitStatus::kClosed);
  EXPECT_TRUE(after.done());
  before.wait();
  EXPECT_EQ(before.outcome(), RequestOutcome::kScored);  // drained, not dropped
  const std::vector<const trace::FeatureSet*> batch{&fs};
  EXPECT_THROW((void)service.score_all(batch), std::runtime_error);
  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.rejected_closed, 2u);  // the bare submit + score_all's attempt
  EXPECT_EQ(snap.in_flight(), 0u);
}

TEST(ServeService, BadFeatureSetFailsThatRequestOnly) {
  // A feature set without the epoch's view must complete (exactly once)
  // as kFailed — and must not take the worker down with it.
  trace::FeatureSet wrong_view;
  wrong_view.put(trace::FeatureConfig{trace::FeatureView::kInsnCategory, 512},
                 {{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}});
  const trace::FeatureSet good = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  ScoringService service(test_epoch(0.1), config);

  ScoreTicket bad_ticket;
  ASSERT_EQ(service.submit(wrong_view, bad_ticket), SubmitStatus::kAccepted);
  bad_ticket.wait();
  EXPECT_EQ(bad_ticket.outcome(), RequestOutcome::kFailed);
  EXPECT_TRUE(bad_ticket.scores().empty());

  ScoreTicket good_ticket;
  ASSERT_EQ(service.submit(good, good_ticket), SubmitStatus::kAccepted);
  good_ticket.wait();
  EXPECT_EQ(good_ticket.outcome(), RequestOutcome::kScored);

  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.scored, 1u);
  EXPECT_EQ(snap.in_flight(), 0u);
}

// --------------------------------------- epoch swaps under load (criterion c)

TEST(ServeService, EpochSwapPartitionsFaultStats) {
  const std::vector<trace::FeatureSet> workload = make_workload(8);
  const auto batch = as_pointers(workload);
  ServeConfig config;
  config.num_workers = 2;
  ScoringService service(test_epoch(0.5), config);
  (void)service.score_all(batch);
  const std::uint64_t second = service.install_epoch(test_epoch(0.0));
  (void)service.score_all(batch);

  const ServiceStatsSnapshot snap = service.stats();
  ASSERT_EQ(snap.per_epoch_faults.size(), 2u);
  EXPECT_GT(snap.per_epoch_faults.at(1).faults, 0u);  // er = 0.5 epoch faulted
  EXPECT_GT(snap.per_epoch_faults.at(second).operations, 0u);
  EXPECT_EQ(snap.per_epoch_faults.at(second).faults, 0u);  // er = 0 epoch exact
  EXPECT_EQ(snap.epoch_swaps, 2u);  // construction + explicit install
}

TEST(ServeService, EpochSwapsUnderSustainedLoadLoseNothing) {
  // Criterion (c), and the TSan target: concurrent producers hammer the
  // queue while the control plane re-rolls the epoch; every request must
  // reach a terminal state, scored under exactly one coherent epoch.
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 120;
  constexpr int kSwaps = 20;
  const std::vector<trace::FeatureSet> workload = make_workload(8);
  ServeConfig config;
  config.num_workers = 2;
  config.queue_capacity = 32;
  ScoringService service(test_epoch(0.2), config);

  std::atomic<std::uint64_t> scored{0};
  std::atomic<std::uint64_t> max_epoch_seen{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ScoreTicket ticket;
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(service.submit(workload[(p + i) % workload.size()], ticket),
                  SubmitStatus::kAccepted);
        ticket.wait();
        ASSERT_EQ(ticket.outcome(), RequestOutcome::kScored);
        ASSERT_GE(ticket.epoch_id(), 1u);
        std::uint64_t seen = max_epoch_seen.load(std::memory_order_relaxed);
        while (seen < ticket.epoch_id() &&
               !max_epoch_seen.compare_exchange_weak(seen, ticket.epoch_id(),
                                                     std::memory_order_relaxed)) {
        }
        scored.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::uint64_t last_installed = 1;
  for (int s = 0; s < kSwaps; ++s) {
    std::this_thread::sleep_for(1ms);
    last_installed = service.install_epoch(test_epoch(s % 2 == 0 ? 0.05 : 0.35));
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(scored.load(), kProducers * kPerProducer);
  EXPECT_LE(max_epoch_seen.load(), last_installed);
  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.enqueued, kProducers * kPerProducer);
  EXPECT_EQ(snap.scored, kProducers * kPerProducer);
  EXPECT_EQ(snap.deadline_missed, 0u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.in_flight(), 0u);
  EXPECT_EQ(snap.epoch_swaps, 1u + kSwaps);
  // Every fault-stat bucket belongs to an epoch that was actually
  // installed — a torn epoch would surface as an impossible id.
  for (const auto& [id, stats] : snap.per_epoch_faults) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, last_installed);
    EXPECT_GT(stats.operations, 0u);
  }
}

// ------------------------------- admission control & overload policies

TEST(ServeQueue, DropOldestEvictsHeadAndAdmitsNewcomer) {
  RequestQueue q(2, admit::make_policy(admit::PolicyKind::kDropOldest));
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 0
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 1
  Request victim;
  ASSERT_EQ(q.try_push(r, &victim), SubmitStatus::kAccepted);  // seq 2 displaces 0
  EXPECT_EQ(victim.seq, 0u);
  EXPECT_EQ(q.size(), 2u);
  Request out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 1u);  // eviction preserved FIFO order of the survivors
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 2u);  // the newcomer's seq is fresh — no seq reuse
}

TEST(ServeQueue, DropOldestWithoutEvictSlotShedsTheNewcomer) {
  // A caller that cannot complete a victim (passes no out-slot) must get
  // plain shed semantics — the queue never drops a request silently.
  RequestQueue q(1, admit::make_policy(admit::PolicyKind::kDropOldest));
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);
  EXPECT_EQ(q.try_push(r), SubmitStatus::kShed);
  EXPECT_EQ(q.size(), 1u);
}

TEST(ServeQueue, LifoPopsNewestOnlyPastHalfCapacity) {
  RequestQueue q(4, admit::make_policy(admit::PolicyKind::kLifo));
  const trace::FeatureSet fs = make_features(1);
  Request r;
  r.features = &fs;
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 0
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 1
  Request out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 0u);  // depth 2 of 4: at half, still FIFO
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 2
  ASSERT_EQ(q.try_push(r), SubmitStatus::kAccepted);  // seq 3 -> depth 3 of 4
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 3u);  // past half: newest first
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 1u);  // back at depth 2: FIFO resumes at the front
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.seq, 2u);
}

TEST(ServeService, ExpiredAtSubmitIsRejectedNeverScored) {
  // Regression: a request whose deadline has already passed at submit
  // time must be refused at the door — not enqueued, not scored, and
  // counted as rejected_on_admission rather than deadline_missed.
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  ScoringService service(test_epoch(0.1), config);

  ScoreTicket ticket;
  const auto expired = ServiceClock::now() - 1ms;
  EXPECT_EQ(service.try_submit(fs, ticket, expired), SubmitStatus::kRejected);
  EXPECT_TRUE(ticket.done());
  EXPECT_EQ(ticket.outcome(), RequestOutcome::kRejected);
  EXPECT_TRUE(ticket.scores().empty());

  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.rejected_on_admission, 1u);
  EXPECT_EQ(snap.enqueued, 0u);
  EXPECT_EQ(snap.scored, 0u);
  EXPECT_EQ(snap.deadline_missed, 0u);
  EXPECT_EQ(snap.in_flight(), 0u);
}

TEST(ServeService, RejectOnArrivalUsesThePredictedWait) {
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  ScoringService service(test_epoch(0.1), config);

  // Warm the predictor: a few scored requests give it a service-time EWMA.
  ScoreTicket warm;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(service.submit(fs, warm), SubmitStatus::kAccepted);
    warm.wait();
  }
  ASSERT_GT(service.wait_predictor().samples(), 0u);
  ASSERT_GT(service.wait_predictor().ewma_service_ns(), 0.0);

  // Hold the workers and build a backlog the predictor can see.
  service.pause();
  std::vector<ScoreTicket> backlog(4);
  for (auto& t : backlog) ASSERT_EQ(service.try_submit(fs, t), SubmitStatus::kAccepted);

  // A deadline tighter than the predicted wait for 4 queued requests is
  // hopeless — reject at the door instead of scoring garbage later.
  ScoreTicket doomed;
  const auto tight = ServiceClock::now() + std::chrono::nanoseconds(50);
  EXPECT_EQ(service.try_submit(fs, doomed, tight), SubmitStatus::kRejected);
  EXPECT_EQ(doomed.outcome(), RequestOutcome::kRejected);

  // No deadline -> no basis for rejection, whatever the backlog.
  ScoreTicket patient;
  EXPECT_EQ(service.try_submit(fs, patient), SubmitStatus::kAccepted);

  service.resume();
  for (auto& t : backlog) t.wait();
  patient.wait();
  EXPECT_EQ(patient.outcome(), RequestOutcome::kScored);
  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.rejected_on_admission, 1u);
  EXPECT_EQ(snap.in_flight(), 0u);
}

TEST(ServeService, DropOldestEvictionCompletesTheVictimAndAccounts) {
  const trace::FeatureSet fs = make_features(5);
  ServeConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.admission_policy = admit::PolicyKind::kDropOldest;
  ScoringService service(test_epoch(0.1), config);
  service.pause();

  std::vector<ScoreTicket> tickets(3);
  for (auto& t : tickets) ASSERT_EQ(service.try_submit(fs, t), SubmitStatus::kAccepted);
  // The third submit displaced the first: its ticket completed as
  // kRejected without ever reaching a worker.
  EXPECT_TRUE(tickets[0].done());
  EXPECT_EQ(tickets[0].outcome(), RequestOutcome::kRejected);
  EXPECT_TRUE(tickets[0].scores().empty());

  service.resume();
  for (auto& t : tickets) t.wait();
  EXPECT_EQ(tickets[1].outcome(), RequestOutcome::kScored);
  EXPECT_EQ(tickets[2].outcome(), RequestOutcome::kScored);

  const ServiceStatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.enqueued, 3u);
  EXPECT_EQ(snap.evicted, 1u);
  EXPECT_EQ(snap.scored, 2u);
  EXPECT_EQ(snap.in_flight(), 0u);  // evicted is terminal in the identity
  // The victim's queue wait landed in the missed-wait histogram, keeping
  // the scored-only latency histogram clean.
  EXPECT_EQ(snap.missed_wait.total, 1u);
  EXPECT_EQ(snap.latency.total, 2u);
}

TEST(ServeStats, ExtendedAccountingIdentityWithV5Counters) {
  ServiceStats stats;
  const faultsim::FaultStats none;
  for (int i = 0; i < 6; ++i) stats.on_enqueued();
  stats.on_scored(100, 1, none);
  stats.on_scored(100, 1, none, /*late=*/true);  // scored but past deadline
  stats.on_deadline_missed(3000);
  stats.on_failed();
  stats.on_evicted(5000);
  stats.on_rejected_admission();  // pre-enqueue: outside the identity
  stats.on_throttled();           // transport-level: outside the identity
  const ServiceStatsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.enqueued, 6u);
  EXPECT_EQ(snap.scored, 2u);
  EXPECT_EQ(snap.scored_late, 1u);
  EXPECT_EQ(snap.goodput(), 1u);  // scored minus scored-late
  EXPECT_EQ(snap.evicted, 1u);
  EXPECT_EQ(snap.rejected_on_admission, 1u);
  EXPECT_EQ(snap.throttled, 1u);
  // enqueued = scored + deadline_missed + failed + evicted + in_flight
  EXPECT_EQ(snap.in_flight(), 1u);  // the sixth request is still queued
  // Evicted and missed waits share the missed-wait histogram.
  EXPECT_EQ(snap.missed_wait.total, 2u);
  EXPECT_EQ(snap.latency.total, 2u);
}

TEST(ServeService, ScoresAreBitIdenticalUnderEveryAdmissionPolicy) {
  // Policies change WHICH requests are admitted under overload, never
  // what an admitted request scores. Below saturation (blocking submits,
  // no overflow) every policy admits everything in the same order, so
  // the full score vectors must match bit for bit.
  const std::vector<trace::FeatureSet> workload = make_workload(24);
  const auto batch = as_pointers(workload);
  std::vector<std::vector<std::vector<double>>> per_policy;
  for (const admit::PolicyKind kind :
       {admit::PolicyKind::kFifo, admit::PolicyKind::kDropOldest,
        admit::PolicyKind::kLifo}) {
    ServeConfig config;
    config.num_workers = 2;
    config.queue_capacity = 8;
    config.seed = 42;
    config.admission_policy = kind;
    ScoringService service(test_epoch(0.25), config);
    per_policy.push_back(service.score_all(batch));
  }
  ASSERT_EQ(per_policy.size(), 3u);
  EXPECT_EQ(per_policy[0], per_policy[1]);
  EXPECT_EQ(per_policy[0], per_policy[2]);
}

}  // namespace
}  // namespace shmd::serve
