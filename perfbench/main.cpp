// The repository benchmark: one run of one workload.
//
//   shmd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a host line, per-phase diagnostics on stderr, and as the last
// stdout line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set from the traced run. Exit 0 only when the correctness
// gate passed; 1 when it failed (the result line says correct: false);
// 2 on a bad command line; 3 when the workload could not run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "nn/kernels/kernels.hpp"
#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::ServedSpec;

// Workload constants. The open-loop rates are fixed numbers, never derived
// from a calibration run: detect_er10 at ~30% of its 2-worker capacity
// (about 7k rps), wire_small at ~15% of the exact path's (about 200k rps),
// overload_deadline at ~2x detect_er10's capacity. The first two leave
// room for the host to slow down under its neighbours without the queue
// taking over the latency figures.
constexpr ServedSpec kDetectEr10{16, 0.10, 2000.0, 5.0, 0.0};
constexpr ServedSpec kWireSmall{1, 0.0, 30000.0, 1.0, 0.0};
// The server deadline leaves 1 ms of the 5 ms limit for the wire and the
// client, so a request the service finishes by its deadline is on time.
constexpr ServedSpec kOverloadDeadline{16, 0.10, 14000.0, 5.0, 4.0};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: shmd_perfbench --workload "
               "<detect_er10|wire_small|overload_deadline|offline_sweep> --seed <n> "
               "--seconds <1..60> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds >= 1.0 && opt.seconds <= 60.0)) {
        return usage("--seconds must be a number in [1, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");

  std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s kernels=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(), compiler().c_str(),
              PERFBENCH_BUILD_TYPE, shmd::nn::kernels::active().name, opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Outcome outcome;
  try {
    if (opt.workload == "detect_er10") {
      outcome = perfbench::run_served(opt, kDetectEr10);
    } else if (opt.workload == "wire_small") {
      outcome = perfbench::run_served(opt, kWireSmall);
    } else if (opt.workload == "overload_deadline") {
      outcome = perfbench::run_served(opt, kOverloadDeadline);
    } else if (opt.workload == "offline_sweep") {
      outcome = perfbench::run_offline(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload '%s' could not run: %s\n", opt.workload.c_str(),
                 e.what());
    return 3;
  }
  for (const std::string& name : outcome.report.non_finite()) {
    outcome.check(false, "metric " + name + " is not a finite number");
  }
  for (const auto& [name, t] : outcome.phases) {
    std::fprintf(stderr,
                 "[phase] %-20s attempted %10llu scored %10llu missed %8llu rejected %8llu "
                 "shed %8llu throttled %llu failed %llu\n",
                 name.c_str(), static_cast<unsigned long long>(t.sent),
                 static_cast<unsigned long long>(t.scored),
                 static_cast<unsigned long long>(t.missed),
                 static_cast<unsigned long long>(t.rejected),
                 static_cast<unsigned long long>(t.shed),
                 static_cast<unsigned long long>(t.throttled),
                 static_cast<unsigned long long>(t.failed + t.errors));
  }
  for (const std::string& v : outcome.violations) {
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", v.c_str());
  }
  std::printf("%s\n",
              outcome.report.to_json(outcome.correct, outcome.attempted, outcome.failed).c_str());
  return outcome.correct ? 0 : 1;
}
