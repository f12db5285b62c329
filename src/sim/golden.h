// Golden (reference) CNN layer implementations in plain C++ with the same
// Q8.8 fixed-point semantics as the generated hardware. Used to validate
// netlist simulation and as the functional reference for the CNN library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fixed.h"

namespace fpgasim {

/// Channel-major tensor: data[c][y * width + x].
struct Tensor {
  int channels = 0;
  int height = 0;
  int width = 0;
  std::vector<Fixed16> data;  // size == channels * height * width

  Fixed16& at(int c, int y, int x) {
    return data[static_cast<std::size_t>((c * height + y) * width + x)];
  }
  Fixed16 at(int c, int y, int x) const {
    return data[static_cast<std::size_t>((c * height + y) * width + x)];
  }
  static Tensor zeros(int channels, int height, int width) {
    Tensor t{channels, height, width, {}};
    t.data.resize(static_cast<std::size_t>(channels) * height * width);
    return t;
  }
};

/// `count` seeded Q8.8 values, raw parts uniform in [-magnitude, magnitude]
/// (util/rng.h): the stimulus and synthetic parameters of every consumer.
std::vector<Fixed16> random_fixed(std::size_t count, std::uint64_t seed, int magnitude = 50);

/// A tensor of random_fixed values.
Tensor random_tensor(int channels, int height, int width, std::uint64_t seed,
                     int magnitude = 50);

/// Valid-padding 2D convolution with square kernel and unit stride unless
/// given. weights layout: [out_c][in_c][k*k]; bias per out channel.
Tensor golden_conv2d(const Tensor& input, const std::vector<Fixed16>& weights,
                     const std::vector<Fixed16>& bias, int out_channels, int kernel,
                     int stride = 1);

/// Non-overlapping k x k max pooling.
Tensor golden_maxpool(const Tensor& input, int kernel);

/// Non-overlapping k x k average pooling. The Q8.8 window sum is divided
/// with round-to-nearest-even (div_rne), matching the avgpool engine's
/// shift-and-adjust divider bit for bit.
Tensor golden_avgpool(const Tensor& input, int kernel);

/// Global average pooling: one RNE mean per channel, output shape c x 1 x 1.
Tensor golden_global_avgpool(const Tensor& input);

/// Valid-padding depthwise convolution: channel c of the output is channel
/// c of the input convolved with its own k x k filter. weights layout
/// [c][ky][kx]; bias per channel.
Tensor golden_dwconv2d(const Tensor& input, const std::vector<Fixed16>& weights,
                       const std::vector<Fixed16>& bias, int kernel, int stride = 1);

/// Nearest-neighbour upsampling by an integer factor: every input pixel is
/// replicated into a factor x factor block (U-Net style decoders).
Tensor golden_upsample_nn(const Tensor& input, int factor);

Tensor golden_relu(const Tensor& input);

/// Fully-connected layer; weights layout [out][in], bias per output.
std::vector<Fixed16> golden_fc(const std::vector<Fixed16>& input,
                               const std::vector<Fixed16>& weights,
                               const std::vector<Fixed16>& bias, int outputs);

/// Element-wise saturating sum of >= 2 identically-shaped tensors (the
/// join of a residual connection).
Tensor golden_add(const std::vector<const Tensor*>& inputs);

/// Channel concatenation of >= 2 tensors with equal spatial shape (the
/// join of an inception-style branch); channel-major layout means the
/// inputs are simply appended in order.
Tensor golden_concat(const std::vector<const Tensor*>& inputs);

}  // namespace fpgasim
