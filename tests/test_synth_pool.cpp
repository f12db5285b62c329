#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/golden.h"
#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

using testhelpers::expect_tensor_eq;
using testhelpers::run_stream;

struct PoolCase {
  int channels, kernel, h, w;
  bool fuse_relu;
};

class PoolComponent : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolComponent, MatchesGoldenModel) {
  const PoolCase& tc = GetParam();
  PoolParams p;
  p.name = "pool_t";
  p.channels = tc.channels;
  p.kernel = tc.kernel;
  p.in_h = tc.h;
  p.in_w = tc.w;
  p.fuse_relu = tc.fuse_relu;

  const Tensor input = random_tensor(tc.channels, tc.h, tc.w, 91, 100);
  Tensor expected = golden_maxpool(input, tc.kernel);
  if (tc.fuse_relu) expected = golden_relu(expected);

  const Netlist nl = make_pool_component(p);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PoolComponent,
                         ::testing::Values(PoolCase{1, 2, 4, 4, false},
                                           PoolCase{1, 2, 4, 4, true},
                                           PoolCase{3, 2, 6, 6, true},
                                           PoolCase{2, 3, 9, 9, false},
                                           PoolCase{4, 2, 8, 8, true},
                                           PoolCase{6, 2, 10, 10, true},
                                           PoolCase{1, 4, 8, 8, false},
                                           PoolCase{5, 2, 6, 4, true}));

TEST(PoolComponent, ProcessesBackToBackImages) {
  PoolParams p;
  p.channels = 2;
  p.kernel = 2;
  p.in_h = 4;
  p.in_w = 4;
  const Netlist nl = make_pool_component(p);
  Simulator sim(nl);
  for (int image = 0; image < 3; ++image) {
    const Tensor input = random_tensor(2, 4, 4, 100 + static_cast<std::uint64_t>(image));
    const Tensor expected = golden_maxpool(input, 2);
    const auto out = run_stream(sim, input.data, expected.data.size());
    expect_tensor_eq(out, expected.data);
  }
}

TEST(PoolComponent, UsesNoDspBlocks) {
  PoolParams p;
  p.channels = 8;
  p.kernel = 2;
  p.in_h = 16;
  p.in_w = 16;
  const Netlist nl = make_pool_component(p);
  EXPECT_EQ(nl.stats().resources.dsp, 0);  // pure LUT/carry controller
}

struct DwConvCase {
  int channels, kernel, stride, h, w;
  bool fuse_relu;
};

class DwConvComponent : public ::testing::TestWithParam<DwConvCase> {};

TEST_P(DwConvComponent, MatchesGoldenModel) {
  const DwConvCase& tc = GetParam();
  DwConvParams p;
  p.name = "dw_t";
  p.channels = tc.channels;
  p.kernel = tc.kernel;
  p.stride = tc.stride;
  p.in_h = tc.h;
  p.in_w = tc.w;
  p.fuse_relu = tc.fuse_relu;

  const Tensor input = random_tensor(tc.channels, tc.h, tc.w, 211, 40);
  const auto weights = random_fixed(
      static_cast<std::size_t>(tc.channels) * tc.kernel * tc.kernel, 212, 48);
  const auto bias = random_fixed(static_cast<std::size_t>(tc.channels), 213, 48);
  Tensor expected = golden_dwconv2d(input, weights, bias, tc.kernel, tc.stride);
  if (tc.fuse_relu) expected = golden_relu(expected);

  const Netlist nl = make_dwconv_component(p, weights, bias);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DwConvComponent,
                         ::testing::Values(DwConvCase{1, 3, 1, 5, 5, false},
                                           DwConvCase{2, 3, 1, 6, 6, true},
                                           DwConvCase{3, 1, 1, 4, 4, false},
                                           DwConvCase{4, 3, 2, 7, 7, true},
                                           DwConvCase{2, 2, 2, 6, 6, false},
                                           DwConvCase{5, 3, 1, 8, 6, true}));

TEST(DwConvComponent, ProcessesBackToBackImages) {
  DwConvParams p;
  p.channels = 2;
  p.kernel = 3;
  p.in_h = 5;
  p.in_w = 5;
  const auto weights = random_fixed(2 * 3 * 3, 220, 48);
  const auto bias = random_fixed(2, 221, 48);
  const Netlist nl = make_dwconv_component(p, weights, bias);
  Simulator sim(nl);
  for (int image = 0; image < 3; ++image) {
    const Tensor input = random_tensor(2, 5, 5, 222 + static_cast<std::uint64_t>(image), 40);
    const Tensor expected = golden_dwconv2d(input, weights, bias, 3, 1);
    const auto out = run_stream(sim, input.data, expected.data.size());
    expect_tensor_eq(out, expected.data);
  }
}

TEST(DwConvComponent, UsesOneDspMac) {
  DwConvParams p;
  p.channels = 4;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  const auto weights = random_fixed(4 * 3 * 3, 230, 48);
  const auto bias = random_fixed(4, 231, 48);
  const Netlist nl = make_dwconv_component(p, weights, bias);
  EXPECT_EQ(nl.stats().resources.dsp, 1);  // channels share a single MAC
}

struct AvgPoolCase {
  int channels, kernel_h, kernel_w, h, w;
  bool fuse_relu;
};

class AvgPoolComponent : public ::testing::TestWithParam<AvgPoolCase> {};

TEST_P(AvgPoolComponent, MatchesGoldenModel) {
  const AvgPoolCase& tc = GetParam();
  AvgPoolParams p;
  p.name = "avg_t";
  p.channels = tc.channels;
  p.kernel_h = tc.kernel_h;
  p.kernel_w = tc.kernel_w;
  p.in_h = tc.h;
  p.in_w = tc.w;
  p.fuse_relu = tc.fuse_relu;

  const Tensor input = random_tensor(tc.channels, tc.h, tc.w, 97, 120);
  Tensor expected;
  if (tc.kernel_h == tc.h && tc.kernel_w == tc.w) {
    expected = golden_global_avgpool(input);
  } else {
    expected = golden_avgpool(input, tc.kernel_h);  // square windows below
  }
  if (tc.fuse_relu) expected = golden_relu(expected);

  const Netlist nl = make_avgpool_component(p);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AvgPoolComponent,
                         ::testing::Values(
                             // square k x k windows (kernel_h == kernel_w)
                             AvgPoolCase{1, 2, 2, 4, 4, false},
                             AvgPoolCase{3, 2, 2, 6, 6, true},
                             AvgPoolCase{2, 4, 4, 8, 8, false},
                             AvgPoolCase{4, 2, 2, 8, 8, true},
                             // global average pooling (window == whole map)
                             AvgPoolCase{3, 4, 4, 4, 4, false},
                             AvgPoolCase{2, 2, 8, 2, 8, false},
                             AvgPoolCase{5, 4, 2, 4, 2, true}));

TEST(AvgPoolComponent, RoundsToNearestEven) {
  // A 1x2 window averaging {a, b} hits .5 ties: RNE must round to the even
  // quotient, not away from zero.
  AvgPoolParams p;
  p.channels = 1;
  p.kernel_h = 1;
  p.kernel_w = 2;
  p.in_h = 1;
  p.in_w = 8;
  Tensor input = Tensor::zeros(1, 1, 8);
  const std::int16_t raws[8] = {1, 2,    // mean 1.5 -> 2
                                3, 2,    // mean 2.5 -> 2
                                -1, -2,  // mean -1.5 -> -2
                                -3, -2}; // mean -2.5 -> -2
  for (int i = 0; i < 8; ++i) input.data[static_cast<std::size_t>(i)].raw = raws[i];
  const Netlist nl = make_avgpool_component(p);
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, 4);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].raw, 2);
  EXPECT_EQ(out[1].raw, 2);
  EXPECT_EQ(out[2].raw, -2);
  EXPECT_EQ(out[3].raw, -2);
}

TEST(AvgPoolComponent, RejectsBadWindows) {
  AvgPoolParams p;
  p.channels = 1;
  p.kernel_h = 3;  // 3x3 = 9, not a power of two
  p.kernel_w = 3;
  p.in_h = 9;
  p.in_w = 9;
  EXPECT_THROW(make_avgpool_component(p), std::invalid_argument);
  p.kernel_h = 2;
  p.kernel_w = 2;
  p.in_h = 5;  // window does not tile the input
  p.in_w = 4;
  EXPECT_THROW(make_avgpool_component(p), std::invalid_argument);
}

TEST(AvgPoolComponent, UsesOneDspForTheShiftDivide) {
  AvgPoolParams p;
  p.channels = 2;
  p.kernel_h = 2;
  p.kernel_w = 2;
  p.in_h = 4;
  p.in_w = 4;
  const Netlist nl = make_avgpool_component(p);
  EXPECT_EQ(nl.stats().resources.dsp, 1);
}

struct UpsampleCase {
  int channels, factor, h, w;
  bool fuse_relu;
};

class UpsampleComponent : public ::testing::TestWithParam<UpsampleCase> {};

TEST_P(UpsampleComponent, MatchesGoldenModel) {
  const UpsampleCase& tc = GetParam();
  const Tensor input = random_tensor(tc.channels, tc.h, tc.w, 131, 100);
  Tensor expected = golden_upsample_nn(input, tc.factor);
  if (tc.fuse_relu) expected = golden_relu(expected);

  const Netlist nl = make_upsample_component("up_t", tc.channels, tc.h, tc.w, tc.factor,
                                             tc.fuse_relu);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UpsampleComponent,
                         ::testing::Values(UpsampleCase{1, 2, 3, 3, false},
                                           UpsampleCase{2, 2, 4, 4, true},
                                           UpsampleCase{3, 3, 2, 2, false},
                                           UpsampleCase{2, 4, 2, 3, false},
                                           UpsampleCase{4, 2, 3, 5, true}));

TEST(UpsampleComponent, ProcessesBackToBackImages) {
  const Netlist nl = make_upsample_component("up_t", 2, 3, 3, 2);
  Simulator sim(nl);
  for (int image = 0; image < 3; ++image) {
    const Tensor input = random_tensor(2, 3, 3, 140 + static_cast<std::uint64_t>(image));
    const Tensor expected = golden_upsample_nn(input, 2);
    const auto out = run_stream(sim, input.data, expected.data.size());
    expect_tensor_eq(out, expected.data);
  }
}

TEST(UpsampleComponent, RejectsNonPositiveFactor) {
  EXPECT_THROW(make_upsample_component("up_t", 1, 2, 2, 0), std::invalid_argument);
}

TEST(ReluComponent, RectifiesStream) {
  const Netlist nl = make_relu_component("relu_t");
  Simulator sim(nl);
  std::vector<Fixed16> values;
  for (const std::int16_t v : {-300, -1, 0, 1, 250}) values.push_back(Fixed16::from_raw(v));
  const StreamRun run = drive_stream(sim, {values}, values.size(), 100);
  ASSERT_TRUE(run.complete);
  EXPECT_EQ(run.cycles, values.size());  // one word per cycle, no stall
  const std::vector<Fixed16>& got = run.outputs[0];
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].raw, 0);
  EXPECT_EQ(got[1].raw, 0);
  EXPECT_EQ(got[2].raw, 0);
  EXPECT_EQ(got[3].raw, 1);
  EXPECT_EQ(got[4].raw, 250);
}

}  // namespace
}  // namespace fpgasim
