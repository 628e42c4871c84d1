// Shared pieces of the repository benchmark: workload specs, exact
// latency samples, the span log behind the traced run, the metric report,
// and the entry points of each workload family.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "nn/network.hpp"
#include "trace/dataset.hpp"

namespace shmd::hmd {}
namespace shmd::runtime {}
namespace shmd::serve {}
namespace shmd::util {}

namespace perfbench {

namespace faultsim = shmd::faultsim;
namespace hmd = shmd::hmd;
namespace net = shmd::net;
namespace nn = shmd::nn;
namespace rng = shmd::rng;
namespace runtime = shmd::runtime;
namespace serve = shmd::serve;
namespace trace = shmd::trace;
namespace util = shmd::util;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// A workload that cannot run (bad flag, missing socket support, a layer
/// that refused its inputs). main() prints the name and exits nonzero.
class WorkloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Every sample kept; quantiles are exact order statistics, never bucket
/// midpoints (serve::LatencyHistogram reports log2 buckets, which hides
/// run-to-run movement below a factor of two).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void reserve(std::size_t n) { values_.reserve(n); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;

 private:
  std::vector<double> values_;
};

[[nodiscard]] double median(std::vector<double> values);

/// One timed call (or a timed loop of `ops` calls) into a layer, recorded
/// from the benchmark's own code.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t ops;
};

/// Per-thread, in-memory span log. A null SpanLog* means tracing is off:
/// ScopedSpan then costs one branch and records nothing.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  std::size_t open(const char* name);
  void close(std::size_t index, std::uint64_t ops);
  void append(const SpanLog& other);

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t ops = 0;
    double total_ns = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Mean nanoseconds per op of one span name (0 if never recorded).
  [[nodiscard]] double ns_per_op(const std::string& name) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t ops = 1)
      : log_(log), ops_(ops), index_(log != nullptr ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_, ops_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t ops_;
  std::size_t index_;
};

/// Name -> (value, unit), printed in name order.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Entry{value, unit};
  }
  [[nodiscard]] std::string to_json(bool correct, std::uint64_t attempted,
                                    std::uint64_t failed) const;
  /// Names of metrics whose value is NaN or infinite (printed as -1).
  [[nodiscard]] std::vector<std::string> non_finite() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

/// Outcome tally of one phase, by reply kind. The gate compares the
/// client's tally with the one the server's counters give.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t scored = 0;
  std::uint64_t missed = 0;     ///< kDeadlineMissed result frames
  std::uint64_t rejected = 0;   ///< kRejected result frames (admission)
  std::uint64_t failed = 0;     ///< kFailed result frames
  std::uint64_t shed = 0;       ///< kShed error frames
  std::uint64_t throttled = 0;  ///< kThrottled error frames
  std::uint64_t errors = 0;     ///< any other reply
  [[nodiscard]] std::uint64_t replies() const noexcept {
    return scored + missed + rejected + failed + shed + throttled + errors;
  }
  void merge(const Tally& o) noexcept {
    sent += o.sent;
    scored += o.scored;
    missed += o.missed;
    rejected += o.rejected;
    failed += o.failed;
    shed += o.shed;
    throttled += o.throttled;
    errors += o.errors;
  }
};

/// The generated inputs of one run: a synthetic corpus, the victim
/// trained on it, and the request stream cut from the corpus windows.
struct Inputs {
  trace::Dataset dataset;
  trace::FeatureConfig features;
  nn::Network victim;
  std::vector<trace::FeatureSet> programs;     ///< one per request
  std::vector<net::ScoreRequest> requests;     ///< the same windows, on the wire
  double corpus_build_s = 0.0;
  double train_s = 0.0;
};

/// Fixed parameters of a served workload (rates are constants, never
/// calibrated at run time).
struct ServedSpec {
  std::size_t windows_per_request;
  double error_rate;         ///< operating point of the open-loop phase
  double rate_rps;           ///< open-loop offered rate
  double limit_ms;           ///< latency limit, timed from the due moment
  double deadline_ms;        ///< server-side deadline carried by each request (0: none)
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a workload hands back to main(): the metrics plus accounting.
struct Outcome {
  Report report;
  bool correct = true;
  std::vector<std::string> violations;  ///< why `correct` is false
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Tally> phases;  ///< per phase kind, all rounds summed
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      violations.push_back(what);
    }
  }
};

/// Build a corpus of `n_malware` + `n_benign` programs from `seed`, train
/// the victim on its training fold, and cut the request stream: each
/// program's windows in order, `windows_per_request` to a request (0: one
/// whole program per request).
[[nodiscard]] Inputs make_inputs(std::uint64_t seed, std::size_t n_malware,
                                 std::size_t n_benign, std::size_t trace_length,
                                 std::size_t windows_per_request);

/// A request's windows flattened row-major: the forward_batch input tile.
[[nodiscard]] std::vector<double> tile_of(const net::ScoreRequest& request);

/// MACs one request costs: the network's MAC count times its windows.
[[nodiscard]] std::uint64_t macs_per_request(const nn::Network& net,
                                             const net::ScoreRequest& request);

[[nodiscard]] Outcome run_served(const RunOptions& opt, const ServedSpec& spec);
[[nodiscard]] Outcome run_offline(const RunOptions& opt);

/// Traced open-loop probe of a self-hosted service over `inputs`: sets
/// the served per-layer metrics for a workload whose own phases are not
/// served. `layers` holds measure_layers' replays of the same requests.
void served_layer_probe(const Inputs& inputs, const ServedSpec& spec, std::uint64_t seed,
                        double seconds, const SpanLog& layers, SpanLog& log, Report& report,
                        Outcome& out);
/// The end-to-end latency tail of a traced run, from the load generator's
/// samples: p90, p99 and the sample count behind them. Per-layer, not
/// end-to-end, because host stalls of a few milliseconds decide it on a
/// shared host and it does not repeat from run to run.
void set_tail(const Samples& latency_ms, Report& report);
/// Every set-up time of a run, in order, and their median, to stderr.
void print_setups(const std::vector<double>& setup_s);
/// Per-name span totals, one line each, to stderr.
void print_spans(const SpanLog& log);

/// Per-request layer replays for the traced run (layers.cpp): codec,
/// submit, forward exact/faulty, gemm, vote, re-anchor, runtime scaling.
/// `error_rate` is the faulty path's operating point.
void measure_layers(const Inputs& inputs, double error_rate, std::uint64_t seed,
                    double budget_s, SpanLog& log, Report& report);

/// Correctness probe (served.cpp): a fixed-seed request prefix scored over
/// UDS, in process via score_all, and by a direct re-anchored
/// forward_batch must agree bit for bit at er = 0.10, and equal the
/// exact forward at er = 0.
void parity_gate(const Inputs& inputs, std::uint64_t seed, const std::string& socket_path,
                 Outcome& out);

/// |faults/ops - er| within six binomial standard deviations, and no
/// faults at all when er == 0.
[[nodiscard]] bool fault_rate_ok(std::uint64_t faults, std::uint64_t operations, double er);

/// Per-pid socket path relative to the working directory (the checkout),
/// short enough for sun_path wherever the checkout lives.
[[nodiscard]] std::string socket_path(const std::string& tag);

[[nodiscard]] double peak_rss_mb();

/// Scoring workers of every service and BatchScorer the benchmark starts,
/// and the service's ring capacity. Two workers leave a core each for the
/// reactor and the load generator on the 4-core hosts this targets.
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kQueueCapacity = 256;

/// Pacing loops sleep until this close to the due moment, then spin. With
/// precise_sleeps() a sleep overshoots by a few microseconds, so the spin
/// stays short and the load threads leave the cores to the service.
inline constexpr std::chrono::microseconds kSpinBelow{5};

/// Drop the calling thread's timer slack to 1 us (Linux defaults to 50 us,
/// which would make every paced sleep late by that much).
void precise_sleeps();

}  // namespace perfbench
