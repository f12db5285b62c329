#include <gtest/gtest.h>

#include "sim/golden.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

TEST(Golden, ConvIdentityKernel) {
  // 1x1 kernel with weight 1.0 and zero bias is the identity.
  Tensor in = random_tensor(2, 4, 4, 5, 60);
  const std::vector<Fixed16> w{Fixed16::from_double(1.0), Fixed16{0}, Fixed16{0},
                               Fixed16::from_double(1.0)};
  const std::vector<Fixed16> bias{Fixed16{0}, Fixed16{0}};
  const Tensor out = golden_conv2d(in, w, bias, 2, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(out.at(0, y, x), in.at(0, y, x));
      EXPECT_EQ(out.at(1, y, x), in.at(1, y, x));
    }
  }
}

TEST(Golden, ConvKnownAnswer) {
  // 2x2 all-ones kernel over a ramp: output = sum of the window + bias.
  Tensor in = Tensor::zeros(1, 3, 3);
  for (int i = 0; i < 9; ++i) in.data[static_cast<std::size_t>(i)] = Fixed16::from_double(i);
  const std::vector<Fixed16> w(4, Fixed16::from_double(1.0));
  const Tensor out = golden_conv2d(in, w, {Fixed16::from_double(0.5)}, 1, 2);
  EXPECT_EQ(out.height, 2);
  EXPECT_EQ(out.width, 2);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0).to_double(), 0 + 1 + 3 + 4 + 0.5);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1).to_double(), 4 + 5 + 7 + 8 + 0.5);
}

TEST(Golden, ConvStride) {
  Tensor in = random_tensor(1, 6, 6, 6, 60);
  const std::vector<Fixed16> w{Fixed16::from_double(1.0)};
  const Tensor out = golden_conv2d(in, w, {Fixed16{0}}, 1, 1, 2);
  EXPECT_EQ(out.height, 3);
  EXPECT_EQ(out.width, 3);
  EXPECT_EQ(out.at(0, 1, 2), in.at(0, 2, 4));
}

TEST(Golden, MaxPoolPicksWindowMax) {
  Tensor in = Tensor::zeros(1, 4, 4);
  for (int i = 0; i < 16; ++i) {
    in.data[static_cast<std::size_t>(i)] = Fixed16::from_double(i % 7 - 3);
  }
  const Tensor out = golden_maxpool(in, 2);
  EXPECT_EQ(out.height, 2);
  for (int oy = 0; oy < 2; ++oy) {
    for (int ox = 0; ox < 2; ++ox) {
      Fixed16 expected = in.at(0, oy * 2, ox * 2);
      for (int ky = 0; ky < 2; ++ky) {
        for (int kx = 0; kx < 2; ++kx) {
          expected = fixed_max(expected, in.at(0, oy * 2 + ky, ox * 2 + kx));
        }
      }
      EXPECT_EQ(out.at(0, oy, ox), expected);
    }
  }
}

TEST(Golden, PoolOutputDominatesInputs) {
  // Property: each pooled value is >= every value in its window.
  const Tensor in = random_tensor(3, 8, 8, 7, 60);
  const Tensor out = golden_maxpool(in, 2);
  for (int c = 0; c < 3; ++c) {
    for (int oy = 0; oy < 4; ++oy) {
      for (int ox = 0; ox < 4; ++ox) {
        for (int ky = 0; ky < 2; ++ky) {
          for (int kx = 0; kx < 2; ++kx) {
            EXPECT_GE(out.at(c, oy, ox).raw, in.at(c, oy * 2 + ky, ox * 2 + kx).raw);
          }
        }
      }
    }
  }
}

TEST(Golden, ReluClampsNegativesOnly) {
  const Tensor in = random_tensor(2, 5, 5, 11, 60);
  const Tensor out = golden_relu(in);
  for (std::size_t i = 0; i < in.data.size(); ++i) {
    if (in.data[i].raw > 0) {
      EXPECT_EQ(out.data[i], in.data[i]);
    } else {
      EXPECT_EQ(out.data[i].raw, 0);
    }
  }
}

TEST(Golden, ReluIsIdempotent) {
  const Tensor in = random_tensor(2, 5, 5, 13, 60);
  const Tensor once = golden_relu(in);
  const Tensor twice = golden_relu(once);
  EXPECT_EQ(once.data, twice.data);
}

TEST(Golden, FcKnownAnswer) {
  const std::vector<Fixed16> in{Fixed16::from_double(1.0), Fixed16::from_double(2.0)};
  const std::vector<Fixed16> w{Fixed16::from_double(0.5), Fixed16::from_double(0.25),
                               Fixed16::from_double(-1.0), Fixed16::from_double(1.0)};
  const std::vector<Fixed16> bias{Fixed16::from_double(0.125), Fixed16{0}};
  const auto out = golden_fc(in, w, bias, 2);
  EXPECT_DOUBLE_EQ(out[0].to_double(), 0.5 + 0.5 + 0.125);
  EXPECT_DOUBLE_EQ(out[1].to_double(), -1.0 + 2.0);
}

TEST(Golden, FcEqualsConvWithFullKernel) {
  // The paper implements FC as convolution with kernel == input size; the
  // two golden paths must agree.
  const Tensor in = random_tensor(3, 2, 2, 17, 40);
  Rng rng(21);
  std::vector<Fixed16> w(static_cast<std::size_t>(4) * 3 * 2 * 2);
  for (Fixed16& v : w) v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
  std::vector<Fixed16> bias(4);
  for (Fixed16& v : bias) v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));

  const Tensor conv_out = golden_conv2d(in, w, bias, 4, 2);
  ASSERT_EQ(conv_out.data.size(), 4u);
  const auto fc_out = golden_fc(in.data, w, bias, 4);
  for (int o = 0; o < 4; ++o) {
    EXPECT_EQ(conv_out.data[static_cast<std::size_t>(o)], fc_out[static_cast<std::size_t>(o)])
        << "output " << o;
  }
}

TEST(Golden, AvgPoolKnownAnswerWithRneTies) {
  // 2x2 windows over raw Q8.8 values; the window mean uses
  // round-to-nearest-even on the raw sum (den = 4).
  Tensor in = Tensor::zeros(1, 2, 4);
  in.at(0, 0, 0) = Fixed16::from_raw(1);
  in.at(0, 0, 1) = Fixed16::from_raw(2);
  in.at(0, 1, 0) = Fixed16::from_raw(3);
  in.at(0, 1, 1) = Fixed16::from_raw(4);  // sum 10 -> 2.5 -> 2 (even)
  in.at(0, 0, 2) = Fixed16::from_raw(3);
  in.at(0, 0, 3) = Fixed16::from_raw(3);
  in.at(0, 1, 2) = Fixed16::from_raw(4);
  in.at(0, 1, 3) = Fixed16::from_raw(4);  // sum 14 -> 3.5 -> 4 (even)
  const Tensor out = golden_avgpool(in, 2);
  EXPECT_EQ(out.height, 1);
  EXPECT_EQ(out.width, 2);
  EXPECT_EQ(out.at(0, 0, 0).raw, 2);
  EXPECT_EQ(out.at(0, 0, 1).raw, 4);
}

TEST(Golden, AvgPoolNegativeTiesRoundToEven) {
  Tensor in = Tensor::zeros(1, 2, 2);
  in.at(0, 0, 0) = Fixed16::from_raw(-1);
  in.at(0, 0, 1) = Fixed16::from_raw(-2);
  in.at(0, 1, 0) = Fixed16::from_raw(-3);
  in.at(0, 1, 1) = Fixed16::from_raw(-4);  // sum -10 -> -2.5 -> -2 (even)
  EXPECT_EQ(golden_avgpool(in, 2).at(0, 0, 0).raw, -2);
  in.at(0, 1, 1) = Fixed16::from_raw(-8);  // sum -14 -> -3.5 -> -4 (even)
  EXPECT_EQ(golden_avgpool(in, 2).at(0, 0, 0).raw, -4);
}

TEST(Golden, GlobalAvgPoolIsFullWindowAvgPool) {
  const Tensor in = random_tensor(3, 4, 4, 23, 60);
  const Tensor global = golden_global_avgpool(in);
  const Tensor full = golden_avgpool(in, 4);
  ASSERT_EQ(global.height, 1);
  ASSERT_EQ(global.width, 1);
  for (int c = 0; c < 3; ++c) EXPECT_EQ(global.at(c, 0, 0), full.at(c, 0, 0));
}

TEST(Golden, DwConvMatchesPerChannelConv) {
  // Depthwise convolution is definitionally one single-channel conv per
  // channel; the decomposition must agree bit for bit, strides included.
  for (const int stride : {1, 2}) {
    const Tensor in = random_tensor(3, 6, 6, 31, 40);
    Rng rng(37);
    std::vector<Fixed16> w(static_cast<std::size_t>(3) * 3 * 3);
    for (Fixed16& v : w) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
    }
    std::vector<Fixed16> bias(3);
    for (Fixed16& v : bias) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-40, 40)));
    }
    const Tensor out = golden_dwconv2d(in, w, bias, 3, stride);
    for (int c = 0; c < 3; ++c) {
      Tensor channel = Tensor::zeros(1, 6, 6);
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 6; ++x) channel.at(0, y, x) = in.at(c, y, x);
      }
      const std::vector<Fixed16> wc(w.begin() + c * 9, w.begin() + (c + 1) * 9);
      const Tensor ref = golden_conv2d(channel, wc, {bias[static_cast<std::size_t>(c)]},
                                       1, 3, stride);
      ASSERT_EQ(out.height, ref.height);
      for (int y = 0; y < out.height; ++y) {
        for (int x = 0; x < out.width; ++x) {
          EXPECT_EQ(out.at(c, y, x), ref.at(0, y, x)) << c << "," << y << "," << x;
        }
      }
    }
  }
}

TEST(Golden, UpsampleReplicatesBlocks) {
  const Tensor in = random_tensor(2, 3, 3, 41, 60);
  const Tensor out = golden_upsample_nn(in, 3);
  EXPECT_EQ(out.channels, 2);
  EXPECT_EQ(out.height, 9);
  EXPECT_EQ(out.width, 9);
  for (int c = 0; c < 2; ++c) {
    for (int y = 0; y < 9; ++y) {
      for (int x = 0; x < 9; ++x) {
        EXPECT_EQ(out.at(c, y, x), in.at(c, y / 3, x / 3));
      }
    }
  }
}

TEST(Golden, UpsampleFactorOneIsIdentity) {
  const Tensor in = random_tensor(2, 4, 5, 43, 60);
  const Tensor out = golden_upsample_nn(in, 1);
  EXPECT_EQ(out.data, in.data);
}

}  // namespace
}  // namespace fpgasim
