#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "hmd/train.hpp"
#include "perfbench.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t SpanLog::open(const char* name) {
  spans_.push_back(Span{name, ns_between(origin_, Clock::now()), 0, 0});
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index, std::uint64_t ops) {
  Span& span = spans_[index];
  span.end_ns = ns_between(origin_, Clock::now());
  span.ops = ops;
}

void SpanLog::append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::map<std::string, Totals> out;
  for (const Span& span : spans_) {
    Totals& t = out[span.name];
    ++t.count;
    t.ops += span.ops;
    t.total_ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  return out;
}

double SpanLog::ns_per_op(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  if (it == all.end() || it->second.ops == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.ops);
}

std::string Report::to_json(bool correct, std::uint64_t attempted,
                            std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(entry.value) ? entry.value : -1.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + entry.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

std::vector<std::string> Report::non_finite() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : metrics_) {
    if (!std::isfinite(entry.value)) names.push_back(name);
  }
  return names;
}

Inputs make_inputs(std::uint64_t seed, std::size_t n_malware, std::size_t n_benign,
                   std::size_t trace_length, std::size_t windows_per_request) {
  trace::DatasetConfig config;
  config.corpus.n_malware = n_malware;
  config.corpus.n_benign = n_benign;
  config.corpus.master_seed = seed;
  config.trace_length = trace_length;
  config.fold_seed = seed ^ 0xF01D5ULL;
  const Clock::time_point t0 = Clock::now();
  Inputs in{trace::Dataset::build(config), {}, {}, {}, {}, 0.0, 0.0};
  const Clock::time_point t1 = Clock::now();
  in.corpus_build_s = seconds_between(t0, t1);
  in.features = trace::FeatureConfig{trace::FeatureView::kInsnCategory,
                                     in.dataset.config().periods.front()};
  hmd::HmdTrainOptions train;  // the figure benches' --quick victim
  train.train.epochs = 80;
  train.seed = seed ^ 0x7124111ULL;
  in.victim = hmd::train_hmd_network(in.dataset, in.dataset.folds(0).victim_training,
                                     in.features, train);
  in.train_s = seconds_between(t1, Clock::now());

  for (const trace::ProgramSample& sample : in.dataset.samples()) {
    const auto& windows = sample.features.windows(in.features);
    const std::size_t chunk = windows_per_request == 0 ? windows.size() : windows_per_request;
    for (std::size_t at = 0; chunk > 0 && at + chunk <= windows.size(); at += chunk) {
      std::vector<std::vector<double>> part(windows.begin() + static_cast<std::ptrdiff_t>(at),
                                            windows.begin() +
                                                static_cast<std::ptrdiff_t>(at + chunk));
      net::ScoreRequest request;
      request.view = static_cast<std::uint8_t>(in.features.view);
      request.period = static_cast<std::uint32_t>(in.features.period);
      request.width = in.victim.input_dim();
      request.windows = part;
      in.requests.push_back(std::move(request));
      trace::FeatureSet program;
      program.put(in.features, std::move(part));
      in.programs.push_back(std::move(program));
    }
  }
  if (in.requests.empty()) throw WorkloadError("corpus produced no requests");
  return in;
}

std::vector<double> tile_of(const net::ScoreRequest& request) {
  std::vector<double> tile;
  for (const auto& window : request.windows) tile.insert(tile.end(), window.begin(), window.end());
  return tile;
}

std::uint64_t macs_per_request(const nn::Network& net, const net::ScoreRequest& request) {
  return static_cast<std::uint64_t>(net.mac_count()) * request.windows.size();
}

bool fault_rate_ok(std::uint64_t faults, std::uint64_t operations, double er) {
  if (operations == 0) return false;
  if (er <= 0.0) return faults == 0;
  const auto n = static_cast<double>(operations);
  const double rate = static_cast<double>(faults) / n;
  return std::fabs(rate - er) <= 6.0 * std::sqrt(er * (1.0 - er) / n);
}

std::string socket_path(const std::string& tag) {
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

void set_tail(const Samples& latency_ms, Report& report) {
  report.set("loadgen.p90_ms", latency_ms.quantile(0.90), "ms");
  report.set("loadgen.p99_ms", latency_ms.quantile(0.99), "ms");
  report.set("loadgen.latency_samples", static_cast<double>(latency_ms.size()), "count");
}

void print_setups(const std::vector<double>& setup_s) {
  std::string line = "[setup] " + std::to_string(setup_s.size()) + " set-ups, s:";
  char value[32];
  for (const double x : setup_s) {
    std::snprintf(value, sizeof(value), " %.3f", x);
    line += value;
  }
  std::fprintf(stderr, "%s (median %.3f)\n", line.c_str(), median(setup_s));
}

void print_spans(const SpanLog& log) {
  for (const auto& [name, t] : log.totals()) {
    std::fprintf(stderr, "[span] %-28s count %9llu ops %10llu total %10.3f ms\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), static_cast<unsigned long long>(t.ops),
                 t.total_ns / 1e6);
  }
}

void precise_sleeps() { ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
