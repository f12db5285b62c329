#include <gtest/gtest.h>

#include "sim/fixed.h"
#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/kernels.h"

namespace fpgasim {
namespace {

using testhelpers::run_stream;

TEST(Kernels, MatrixMultiplyMatchesReference) {
  const auto a = random_fixed(9, 201);
  const auto b = random_fixed(9, 202);
  std::vector<Fixed16> input = a;
  input.insert(input.end(), b.begin(), b.end());

  std::vector<Fixed16> expected(9);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      Fixed16 acc{0};
      for (int k = 0; k < 3; ++k) {
        acc = acc + a[static_cast<std::size_t>(3 * i + k)] * b[static_cast<std::size_t>(3 * k + j)];
      }
      expected[static_cast<std::size_t>(3 * i + j)] = acc;
    }
  }

  const Netlist nl = make_kernel_component(KernelApp::kMatrixMult, "mm");
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input, 9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].raw, expected[static_cast<std::size_t>(i)].raw)
        << "PE " << i;
  }
}

TEST(Kernels, OuterProductMatchesReference) {
  const auto a = random_fixed(3, 203);
  const auto b = random_fixed(3, 204);
  std::vector<Fixed16> input = a;
  input.insert(input.end(), b.begin(), b.end());

  const Netlist nl = make_kernel_component(KernelApp::kOuterProduct, "op");
  Simulator sim(nl);
  const auto out = run_stream(sim, input, 9);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(out[static_cast<std::size_t>(3 * i + j)],
                a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(j)]);
    }
  }
}

TEST(Kernels, RobertCrossMatchesReference) {
  const auto tile = random_fixed(16, 205);
  auto px = [&](int y, int x) { return tile[static_cast<std::size_t>(4 * y + x)]; };

  const Netlist nl = make_kernel_component(KernelApp::kRobertCross, "rc");
  Simulator sim(nl);
  const auto out = run_stream(sim, tile, 9);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const int gx = px(i, j).raw - px(i + 1, j + 1).raw;
      const int gy = px(i + 1, j).raw - px(i, j + 1).raw;
      const int expected = std::abs(gx) + std::abs(gy);
      EXPECT_EQ(out[static_cast<std::size_t>(3 * i + j)].raw, expected)
          << "PE " << i << "," << j;
    }
  }
}

TEST(Kernels, SmoothingMatchesReference) {
  const auto tile = random_fixed(25, 206);
  auto px = [&](int y, int x) { return tile[static_cast<std::size_t>(5 * y + x)].raw; };

  const Netlist nl = make_kernel_component(KernelApp::kSmoothing, "sm");
  Simulator sim(nl);
  const auto out = run_stream(sim, tile, 9);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      std::int64_t sum = 0;
      for (int dy = 0; dy < 3; ++dy) {
        for (int dx = 0; dx < 3; ++dx) sum += px(i + dy, j + dx);
      }
      EXPECT_EQ(out[static_cast<std::size_t>(3 * i + j)].raw,
                static_cast<std::int16_t>(sum >> 3))
          << "PE " << i << "," << j;
    }
  }
}

class KernelStructure : public ::testing::TestWithParam<KernelApp> {};

TEST_P(KernelStructure, ValidatesAndUsesExpectedDsp) {
  const KernelApp app = GetParam();
  const Netlist nl = make_kernel_component(app, "k");
  EXPECT_TRUE(nl.validate().empty());
  const ResourceVec res = nl.stats().resources;
  switch (app) {
    case KernelApp::kMatrixMult: EXPECT_EQ(res.dsp, 27); break;   // 9 PEs x 3 MACs
    case KernelApp::kOuterProduct: EXPECT_EQ(res.dsp, 9); break;  // 9 multipliers
    case KernelApp::kRobertCross: EXPECT_EQ(res.dsp, 0); break;   // adders only
    case KernelApp::kSmoothing: EXPECT_EQ(res.dsp, 9); break;     // scale stage
  }
  EXPECT_GT(res.lut, 0);
  EXPECT_GT(res.ff, 0);
}

INSTANTIATE_TEST_SUITE_P(AllApps, KernelStructure,
                         ::testing::Values(KernelApp::kMatrixMult, KernelApp::kOuterProduct,
                                           KernelApp::kRobertCross, KernelApp::kSmoothing));

TEST(Kernels, RepeatsAcrossRounds) {
  // The PE block must return to LOAD and accept a second problem.
  const Netlist nl = make_kernel_component(KernelApp::kOuterProduct, "op");
  Simulator sim(nl);
  for (int round = 0; round < 2; ++round) {
    const auto a = random_fixed(3, 210 + static_cast<std::uint64_t>(round));
    const auto b = random_fixed(3, 220 + static_cast<std::uint64_t>(round));
    std::vector<Fixed16> input = a;
    input.insert(input.end(), b.begin(), b.end());
    const auto out = run_stream(sim, input, 9);
    EXPECT_EQ(out[0], a[0] * b[0]);
    EXPECT_EQ(out[8], a[2] * b[2]);
  }
}

}  // namespace
}  // namespace fpgasim
