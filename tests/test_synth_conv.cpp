#include <gtest/gtest.h>

#include "sim/golden.h"
#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/layers.h"

namespace fpgasim {
namespace {

using testhelpers::expect_tensor_eq;
using testhelpers::run_stream;

struct ConvCase {
  int in_c, out_c, kernel, h, w, stride, ic_par, oc_par, dsp_stages;
};

std::ostream& operator<<(std::ostream& os, const ConvCase& c) {
  return os << "i" << c.in_c << "_o" << c.out_c << "_k" << c.kernel << "_" << c.h << "x"
            << c.w << "_s" << c.stride << "_p" << c.ic_par << "x" << c.oc_par << "_d"
            << c.dsp_stages;
}

class ConvComponent : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvComponent, MatchesGoldenModel) {
  const ConvCase& tc = GetParam();
  ConvParams p;
  p.name = "conv_t";
  p.in_c = tc.in_c;
  p.out_c = tc.out_c;
  p.kernel = tc.kernel;
  p.in_h = tc.h;
  p.in_w = tc.w;
  p.stride = tc.stride;
  p.ic_par = tc.ic_par;
  p.oc_par = tc.oc_par;
  p.dsp_stages = tc.dsp_stages;

  const auto weights =
      random_fixed(static_cast<std::size_t>(tc.out_c) * tc.in_c * tc.kernel * tc.kernel, 11);
  const auto bias = random_fixed(static_cast<std::size_t>(tc.out_c), 12);
  const Tensor input = random_tensor(tc.in_c, tc.h, tc.w, 13);
  const Tensor expected = golden_conv2d(input, weights, bias, tc.out_c, tc.kernel, tc.stride);

  const Netlist nl = make_conv_component(p, weights, bias);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvComponent,
    ::testing::Values(ConvCase{1, 1, 3, 6, 6, 1, 1, 1, 1},   // minimal
                      ConvCase{1, 4, 3, 6, 6, 1, 1, 4, 1},   // CU columns
                      ConvCase{4, 1, 3, 6, 6, 1, 4, 1, 1},   // PE lanes
                      ConvCase{2, 4, 3, 6, 6, 1, 2, 2, 1},   // both
                      ConvCase{4, 4, 3, 8, 8, 1, 2, 2, 1},   // folded groups
                      ConvCase{1, 2, 5, 8, 8, 1, 1, 2, 1},   // 5x5 kernel (LeNet)
                      ConvCase{2, 2, 3, 7, 7, 2, 1, 1, 1},   // stride 2
                      ConvCase{1, 1, 1, 4, 4, 1, 1, 1, 1},   // pointwise
                      ConvCase{2, 4, 3, 6, 6, 1, 2, 2, 0},   // combinational DSP
                      ConvCase{2, 4, 3, 6, 6, 1, 2, 2, 2},   // deep DSP pipeline
                      ConvCase{3, 6, 3, 6, 6, 1, 3, 3, 1},   // non-power-of-two
                      ConvCase{2, 3, 4, 9, 9, 1, 1, 3, 1},   // even kernel
                      ConvCase{6, 4, 3, 5, 5, 2, 2, 2, 1},   // deep input folding
                      ConvCase{1, 8, 3, 6, 6, 1, 1, 8, 1})); // wide CU fan

TEST(ConvComponent, FusedReluClampsOutputs) {
  ConvParams p;
  p.in_c = 1;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 5;
  p.in_w = 5;
  p.fuse_relu = true;
  const auto weights = random_fixed(static_cast<std::size_t>(2) * 9, 31);
  const auto bias = random_fixed(2, 32);
  const Tensor input = random_tensor(1, 5, 5, 33);
  const Tensor expected =
      golden_relu(golden_conv2d(input, weights, bias, 2, 3, 1));

  const Netlist nl = make_conv_component(p, weights, bias);
  Simulator sim(nl);
  const auto out = run_stream(sim, input.data, expected.data.size());
  expect_tensor_eq(out, expected.data);
}

TEST(ConvComponent, ProcessesBackToBackImages) {
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 5;
  p.in_w = 5;
  p.ic_par = 2;
  p.oc_par = 2;
  const auto weights = random_fixed(static_cast<std::size_t>(2) * 2 * 9, 41);
  const auto bias = random_fixed(2, 42);
  const Netlist nl = make_conv_component(p, weights, bias);
  Simulator sim(nl);
  for (int image = 0; image < 2; ++image) {
    const Tensor input = random_tensor(2, 5, 5, 50 + static_cast<std::uint64_t>(image));
    const Tensor expected = golden_conv2d(input, weights, bias, 2, 3, 1);
    const auto out = run_stream(sim, input.data, expected.data.size());
    expect_tensor_eq(out, expected.data);
  }
}

TEST(ConvComponent, RejectsIndivisibleParallelism) {
  ConvParams p;
  p.in_c = 3;
  p.ic_par = 2;
  EXPECT_THROW(make_conv_component(p, {}, {}), std::invalid_argument);
}

TEST(ConvComponent, ResourceFootprintScalesWithParallelism) {
  auto build = [](int ic_par, int oc_par) {
    ConvParams p;
    p.in_c = 4;
    p.out_c = 4;
    p.kernel = 3;
    p.in_h = 6;
    p.in_w = 6;
    p.ic_par = ic_par;
    p.oc_par = oc_par;
    p.materialize_roms = false;
    return make_conv_component(p, {}, {}).stats().resources;
  };
  const ResourceVec small = build(1, 1);
  const ResourceVec big = build(4, 4);
  EXPECT_EQ(small.dsp, 1);
  EXPECT_EQ(big.dsp, 16);  // exactly the MAC array
  EXPECT_GT(big.bram, small.bram);  // banked memories
  // LUTs do NOT necessarily grow: full parallelism folds the group
  // counters (icg/ocg become constants), removing address adder chains.
}

TEST(ConvComponent, WeightBufferShrinksBramFootprint) {
  ConvParams p;
  p.in_c = 8;
  p.out_c = 16;
  p.kernel = 3;
  p.in_h = 12;
  p.in_w = 12;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  ConvParams buffered = p;
  buffered.weight_buffer_ocg = 1;
  const auto full = make_conv_component(p, {}, {}).stats().resources;
  const auto small = make_conv_component(buffered, {}, {}).stats().resources;
  EXPECT_LE(small.bram, full.bram);
  EXPECT_EQ(small.dsp, full.dsp);
}

TEST(FcComponent, MatchesGoldenFc) {
  const int inputs = 12, outputs = 6;
  const auto weights = random_fixed(static_cast<std::size_t>(outputs) * inputs, 61);
  const auto bias = random_fixed(static_cast<std::size_t>(outputs), 62);
  const auto input = random_fixed(static_cast<std::size_t>(inputs), 63);
  const auto expected = golden_fc(input, weights, bias, outputs);

  const Netlist nl = make_fc_component("fc_t", inputs, outputs, weights, bias, 4, 2);
  ASSERT_TRUE(nl.validate().empty());
  Simulator sim(nl);
  const auto out = run_stream(sim, input, expected.size());
  expect_tensor_eq(out, expected);
}

TEST(FcComponent, SingleOutputNeuron) {
  const auto weights = random_fixed(8, 71);
  const auto bias = random_fixed(1, 72);
  const auto input = random_fixed(8, 73);
  const auto expected = golden_fc(input, weights, bias, 1);
  const Netlist nl_sim = make_fc_component("fc1", 8, 1, weights, bias);
  Simulator sim(nl_sim);
  const auto out = run_stream(sim, input, 1);
  expect_tensor_eq(out, expected);
}

TEST(ConvComponent, CycleCountMatchesAnalyticModel) {
  // The latency model in cnn/impl.h assumes LOAD + COMPUTE + DRAIN phases;
  // the generated hardware must be within a small pipeline epsilon.
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 1;
  p.oc_par = 1;
  const auto weights = random_fixed(static_cast<std::size_t>(2) * 2 * 9, 81);
  const auto bias = random_fixed(2, 82);
  const Tensor input = random_tensor(2, 6, 6, 83);
  const Netlist nl_sim = make_conv_component(p, weights, bias);
  Simulator sim(nl_sim);
  const std::size_t want = static_cast<std::size_t>(p.out_c) * p.out_h() * p.out_w();
  const StreamRun run = drive_stream(sim, {input.data}, want, 100000);
  ASSERT_TRUE(run.complete);
  // LOAD takes one cycle per input word; COMPUTE and DRAIN follow.
  const auto cycles = static_cast<long>(run.cycles - input.data.size());
  const long model = p.compute_cycles() + p.drain_cycles();
  EXPECT_NEAR(static_cast<double>(cycles), static_cast<double>(model), 16.0);
}

}  // namespace
}  // namespace fpgasim
