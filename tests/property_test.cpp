// Parameterized property sweeps (TEST_P): invariants that must hold across
// whole parameter ranges, not just hand-picked points.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <type_traits>

#include "faultsim/fault_injector.hpp"
#include "faultsim/fixed_point.hpp"
#include "nn/network.hpp"
#include "trace/features.hpp"
#include "trace/program.hpp"
#include "volt/volt_fault_model.hpp"

namespace shmd {
namespace {

// ------------------------------------------------- fault injector invariants

class FaultRateProperty : public ::testing::TestWithParam<double> {};

TEST_P(FaultRateProperty, EmpiricalRateMatchesConfigured) {
  const double er = GetParam();
  faultsim::FaultInjector inj(er, faultsim::BitFaultDistribution::measured());
  constexpr int kOps = 60000;
  for (int i = 0; i < kOps; ++i) (void)inj.corrupt_u64(0xABCDEFULL);
  EXPECT_NEAR(inj.stats().fault_rate(), er, 0.01) << "er=" << er;
}

TEST_P(FaultRateProperty, ProtectedBitsNeverFlipAtAnyRate) {
  const double er = GetParam();
  faultsim::FaultInjector inj(er, faultsim::BitFaultDistribution::measured());
  constexpr std::uint64_t kProbe = 0x5555555555555555ULL;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t diff = inj.corrupt_u64(kProbe) ^ kProbe;
    if (diff == 0) continue;
    const int bit = std::countr_zero(diff);
    EXPECT_GE(bit, faultsim::kProtectedLsbs);
    EXPECT_LT(bit, faultsim::kSignBit);
  }
}

TEST_P(FaultRateProperty, ProductSignPreservedAtAnyRate) {
  const double er = GetParam();
  faultsim::FaultInjector inj(er, faultsim::BitFaultDistribution::measured());
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(inj.corrupt_product(0.31), 0.0);
    EXPECT_LE(inj.corrupt_product(-0.31), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, FaultRateProperty,
                         ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0));

// ----------------------------------------------------- fixed-point round trip

class FixedPointProperty : public ::testing::TestWithParam<double> {};

TEST_P(FixedPointProperty, RoundTripWithinLsb) {
  const double x = GetParam();
  EXPECT_NEAR(faultsim::from_q(faultsim::to_q(x)), x, faultsim::bit_weight(0) * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Values, FixedPointProperty,
                         ::testing::Values(0.0, 1e-9, -1e-9, 0.4999, -0.4999, 1.0, -1.0,
                                           31.25, -31.25, 4095.0, -4095.0, 65535.0,
                                           -65535.0));

// ------------------------------------------------- volt model across devices

class DeviceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceProperty, FaultCurveMonotoneAndInvertible) {
  const volt::VoltFaultModel model(volt::DeviceProfile::sample(GetParam()));
  for (double temp : {30.0, 49.0, 70.0}) {
    double prev = -1.0;
    for (double depth = 80.0; depth <= 160.0; depth += 2.0) {
      const double p = model.fault_probability(-depth, temp);
      EXPECT_GE(p, prev);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
    for (double er : {0.1, 0.5, 0.9}) {
      EXPECT_NEAR(model.fault_probability(model.offset_for_error_rate(er, temp), temp), er,
                  1e-6);
    }
  }
}

TEST_P(DeviceProperty, AggregateOperandRateMatchesCurve) {
  // The per-operand criticality distribution must integrate back to the
  // smooth curve — the property that keeps empirical calibration and
  // voltage-driven deployment consistent.
  const volt::VoltFaultModel model(volt::DeviceProfile::sample(GetParam()));
  rng::Xoshiro256ss gen(GetParam() ^ 0xFACADE);
  for (double depth : {110.0, 120.0, 135.0}) {
    double sum = 0.0;
    constexpr int kPairs = 20000;
    for (int i = 0; i < kPairs; ++i) {
      sum += model.operand_fault_probability(gen(), gen(), -depth, 49.0);
    }
    EXPECT_NEAR(sum / kPairs, model.fault_probability(-depth, 49.0), 0.02)
        << "depth " << depth;
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, DeviceProperty,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xBEEFULL, 0xD01CEULL,
                                           0xFFFFFFFFULL));

// ------------------------------------------------ feature-extraction bounds

// gtest names each case after the raw bytes of its parameter, so the struct
// spells out what would otherwise be padding: uninitialised padding bytes
// change the test names from one process to the next.
struct FeatureCase {
  FeatureCase(trace::Family f, std::size_t p) : family(f), period(p) {}
  trace::Family family;
  std::array<std::uint8_t, alignof(std::size_t) - sizeof(trace::Family)> reserved{};
  std::size_t period;
};
static_assert(std::has_unique_object_representations_v<FeatureCase>,
              "FeatureCase must have no padding bytes");

class FeatureProperty : public ::testing::TestWithParam<FeatureCase> {};

TEST_P(FeatureProperty, AllViewsBoundedAndNormalized) {
  const trace::Family family = GetParam().family;
  const std::size_t period = GetParam().period;
  const trace::Program program(0, family, 0xFEA7ULL + static_cast<std::uint64_t>(period));
  const auto trace_data = program.generate(4 * period);
  for (std::size_t v = 0; v < trace::kNumViews; ++v) {
    const auto view = static_cast<trace::FeatureView>(v);
    for (const auto& window : trace::extract_windows(trace_data, view, period)) {
      ASSERT_EQ(window.size(), trace::view_dim(view));
      double category_sum = 0.0;
      for (double x : window) {
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
        category_sum += x;
      }
      if (view == trace::FeatureView::kInsnCategory) {
        EXPECT_NEAR(category_sum, 1.0, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPeriods, FeatureProperty,
    ::testing::Values(FeatureCase{trace::Family::kBrowser, 512},
                      FeatureCase{trace::Family::kCpuBenchmark, 2048},
                      FeatureCase{trace::Family::kSystemUtility, 1024},
                      FeatureCase{trace::Family::kBackdoor, 2048},
                      FeatureCase{trace::Family::kTrojan, 4096},
                      FeatureCase{trace::Family::kWorm, 512},
                      FeatureCase{trace::Family::kPasswordStealer, 1024},
                      FeatureCase{trace::Family::kRogue, 4096}));

// ------------------------------------------------- network serialization

class TopologyProperty
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(TopologyProperty, SaveLoadPreservesFunction) {
  const auto& topology = GetParam();
  nn::Network net(topology, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 7);
  std::stringstream ss;
  net.save(ss);
  const nn::Network loaded = nn::Network::load(ss);
  rng::Xoshiro256ss gen(3);
  std::vector<double> x(net.input_dim());
  for (int probe = 0; probe < 16; ++probe) {
    for (double& xi : x) xi = gen.uniform01();
    EXPECT_NEAR(loaded.forward(x)[0], net.forward(x)[0], 1e-15);
  }
}

TEST_P(TopologyProperty, MacCountMatchesWeights) {
  const auto& topology = GetParam();
  nn::Network net(topology, nn::Activation::kSigmoid, nn::Activation::kSigmoid, 7);
  nn::ExactContext ctx;
  std::vector<double> x(net.input_dim(), 0.5);
  (void)net.forward(x, ctx);
  EXPECT_EQ(ctx.mac_count(), net.mac_count());
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyProperty,
                         ::testing::Values(std::vector<std::size_t>{2, 1},
                                           std::vector<std::size_t>{16, 32, 16, 1},
                                           std::vector<std::size_t>{8, 4, 2, 1},
                                           std::vector<std::size_t>{16, 232, 60, 1},
                                           std::vector<std::size_t>{24, 24, 1}));

// --------------------------------------------- program determinism sweep

class DeterminismProperty : public ::testing::TestWithParam<trace::Family> {};

TEST_P(DeterminismProperty, EveryFamilyGeneratesDeterministically) {
  const trace::Program program(1, GetParam(), 0xDE7E21ULL);
  const auto a = program.generate(8192);
  const auto b = program.generate(8192);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].category, b[i].category) << i;
    ASSERT_EQ(a[i].branch_taken, b[i].branch_taken) << i;
    ASSERT_EQ(a[i].mem_read, b[i].mem_read) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DeterminismProperty,
                         ::testing::Values(trace::Family::kBrowser, trace::Family::kTextEditor,
                                           trace::Family::kSystemUtility,
                                           trace::Family::kCpuBenchmark,
                                           trace::Family::kMediaPlayer,
                                           trace::Family::kBackdoor, trace::Family::kRogue,
                                           trace::Family::kPasswordStealer,
                                           trace::Family::kTrojan, trace::Family::kWorm));

}  // namespace
}  // namespace shmd
