#include <gtest/gtest.h>

#include "sim/golden.h"
#include "sim/simulator.h"
#include "synth/streaming_conv.h"

namespace fpgasim {
namespace {

/// Drives the streaming engine with a whole frame (all channels in
/// parallel, pixel-major) and collects the per-channel output planes.
std::vector<Tensor> run_streaming(const Netlist& nl, const StreamingConvParams& p,
                                  const Tensor& input, int in_h) {
  Simulator sim(nl);
  const int Ho = in_h - p.kernel + 1;
  const int Wo = p.in_w - p.kernel + 1;
  std::vector<Tensor> out(static_cast<std::size_t>(p.out_c));
  for (auto& plane : out) plane = Tensor::zeros(1, Ho, Wo);
  int collected = 0;

  auto collect = [&] {
    if (sim.get_output("out_valid") != 1) return;
    const int oy = collected / Wo;
    const int ox = collected % Wo;
    if (oy < Ho) {
      for (int j = 0; j < p.out_c; ++j) {
        out[static_cast<std::size_t>(j)].at(0, oy, ox) =
            Fixed16{static_cast<std::int16_t>(static_cast<std::uint16_t>(
                sim.get_output("out_data_" + std::to_string(j))))};
      }
    }
    ++collected;
  };

  sim.set_input("in_valid", 1);
  for (int y = 0; y < in_h; ++y) {
    for (int x = 0; x < p.in_w; ++x) {
      for (int c = 0; c < p.in_c; ++c) {
        sim.set_input("in_data_" + std::to_string(c),
                      static_cast<std::uint16_t>(input.at(c, y, x).raw));
      }
      sim.step();
      collect();
    }
  }
  // Flush the MAC pipeline for the tail outputs.
  sim.set_input("in_valid", 0);
  for (int flush = 0; flush < p.dsp_stages + 3; ++flush) {
    sim.step();
    collect();
  }
  EXPECT_EQ(collected, Ho * Wo);
  return out;
}

struct SConvCase {
  int in_c, out_c, kernel, h, w, stages;
  bool relu;
};

class StreamingConv : public ::testing::TestWithParam<SConvCase> {};

TEST_P(StreamingConv, MatchesGoldenOnInteriorWindows) {
  const SConvCase& tc = GetParam();
  StreamingConvParams p;
  p.in_c = tc.in_c;
  p.out_c = tc.out_c;
  p.kernel = tc.kernel;
  p.in_w = tc.w;
  p.dsp_stages = tc.stages;
  p.fuse_relu = tc.relu;
  const auto weights =
      random_fixed(static_cast<std::size_t>(tc.out_c) * tc.in_c * tc.kernel * tc.kernel, 71);
  const auto bias = random_fixed(static_cast<std::size_t>(tc.out_c), 72);
  const Tensor input = random_tensor(tc.in_c, tc.h, tc.w, 73);
  Tensor expected = golden_conv2d(input, weights, bias, tc.out_c, tc.kernel, 1);
  if (tc.relu) expected = golden_relu(expected);

  const Netlist nl = make_streaming_conv_component(p, weights, bias);
  ASSERT_TRUE(nl.validate().empty());
  const auto out = run_streaming(nl, p, input, tc.h);

  // Compare interior output pixels. Row-wrap windows (the last K-1 columns
  // of each collected row) are architectural wrap-around artifacts of the
  // line buffer and are skipped by construction above via exact indexing:
  // every (oy, ox) with ox < Wo matches the golden model.
  for (int j = 0; j < tc.out_c; ++j) {
    for (int oy = 0; oy < expected.height; ++oy) {
      for (int ox = 0; ox < expected.width; ++ox) {
        EXPECT_EQ(out[static_cast<std::size_t>(j)].at(0, oy, ox).raw,
                  expected.at(j, oy, ox).raw)
            << "oc=" << j << " (" << oy << "," << ox << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StreamingConv,
                         ::testing::Values(SConvCase{1, 1, 3, 6, 6, 1, false},
                                           SConvCase{1, 2, 3, 6, 6, 1, false},
                                           SConvCase{2, 2, 3, 6, 6, 1, false},
                                           SConvCase{3, 2, 3, 5, 7, 1, true},
                                           SConvCase{1, 1, 2, 5, 5, 1, false},
                                           SConvCase{1, 1, 5, 7, 8, 1, false},
                                           SConvCase{2, 3, 3, 6, 6, 2, false},
                                           SConvCase{1, 2, 3, 6, 6, 0, false}));

TEST(StreamingConv, DspCountIsFullyParallel) {
  StreamingConvParams p;
  p.in_c = 2;
  p.out_c = 4;
  p.kernel = 3;
  p.in_w = 8;
  const auto weights = random_fixed(static_cast<std::size_t>(4) * 2 * 9, 81);
  const auto bias = random_fixed(4, 82);
  const Netlist nl = make_streaming_conv_component(p, weights, bias);
  EXPECT_EQ(nl.stats().resources.dsp, p.dsp_count());  // 72: one DSP per tap
  EXPECT_EQ(nl.stats().resources.bram, 0);             // pure SRL line buffers
  EXPECT_GT(nl.stats().resources.lut, 0);
}

TEST(StreamingConv, ThroughputIsOnePixelPerCycle) {
  StreamingConvParams p;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 3;
  p.in_w = 8;
  const auto weights = random_fixed(9, 91);
  const auto bias = random_fixed(1, 92);
  const Netlist nl = make_streaming_conv_component(p, weights, bias);
  Simulator sim(nl);
  sim.set_input("in_valid", 1);
  int valid_count = 0;
  const int total_pixels = 8 * 8;
  for (int i = 0; i < total_pixels; ++i) {
    sim.set_input("in_data_0", static_cast<std::uint64_t>(i % 50));
    sim.step();
    valid_count += (sim.get_output("out_valid") == 1);
  }
  // After warm-up every streamed pixel with x>=K-1, y>=K-1 yields an
  // output in the same cycle cadence (modulo the 2-cycle pipeline).
  EXPECT_GE(valid_count, 6 * 6 - 2);
}

TEST(StreamingConv, RejectsKernelWiderThanLine) {
  StreamingConvParams p;
  p.kernel = 5;
  p.in_w = 4;
  EXPECT_THROW(make_streaming_conv_component(p, std::vector<Fixed16>(25), {Fixed16{0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpgasim
