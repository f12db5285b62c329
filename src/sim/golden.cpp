#include "sim/golden.h"

#include <cassert>

#include "util/rng.h"

namespace fpgasim {

std::vector<Fixed16> random_fixed(std::size_t count, std::uint64_t seed, int magnitude) {
  std::vector<Fixed16> values(count);
  Rng rng(seed);
  for (Fixed16& v : values) {
    v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-magnitude, magnitude)));
  }
  return values;
}

Tensor random_tensor(int channels, int height, int width, std::uint64_t seed, int magnitude) {
  const auto size = static_cast<std::size_t>(channels) * height * width;
  return Tensor{channels, height, width, random_fixed(size, seed, magnitude)};
}

Tensor golden_conv2d(const Tensor& input, const std::vector<Fixed16>& weights,
                     const std::vector<Fixed16>& bias, int out_channels, int kernel,
                     int stride) {
  const int out_h = (input.height - kernel) / stride + 1;
  const int out_w = (input.width - kernel) / stride + 1;
  assert(weights.size() == static_cast<std::size_t>(out_channels) * input.channels * kernel *
                               kernel);
  assert(bias.size() == static_cast<std::size_t>(out_channels));
  Tensor out = Tensor::zeros(out_channels, out_h, out_w);
  for (int oc = 0; oc < out_channels; ++oc) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        Fixed16 acc = bias[static_cast<std::size_t>(oc)];
        for (int ic = 0; ic < input.channels; ++ic) {
          for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx) {
              const Fixed16 w =
                  weights[static_cast<std::size_t>(((oc * input.channels + ic) * kernel + ky) *
                                                       kernel +
                                                   kx)];
              const Fixed16 v = input.at(ic, oy * stride + ky, ox * stride + kx);
              acc = acc + w * v;
            }
          }
        }
        out.at(oc, oy, ox) = acc;
      }
    }
  }
  return out;
}

Tensor golden_maxpool(const Tensor& input, int kernel) {
  const int out_h = input.height / kernel;
  const int out_w = input.width / kernel;
  Tensor out = Tensor::zeros(input.channels, out_h, out_w);
  for (int c = 0; c < input.channels; ++c) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        Fixed16 best = input.at(c, oy * kernel, ox * kernel);
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            best = fixed_max(best, input.at(c, oy * kernel + ky, ox * kernel + kx));
          }
        }
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

namespace {

/// RNE mean of one rectangular window; the sum is exact in int64 so the
/// division sees the same value as the engine's 24-bit accumulator.
Fixed16 window_mean(const Tensor& input, int c, int y0, int x0, int kh, int kw) {
  std::int64_t sum = 0;
  for (int ky = 0; ky < kh; ++ky) {
    for (int kx = 0; kx < kw; ++kx) {
      sum += input.at(c, y0 + ky, x0 + kx).raw;
    }
  }
  // The mean of int16 values is itself in int16 range, so no clamp fires.
  return Fixed16::from_raw(
      static_cast<std::int32_t>(div_rne(sum, static_cast<std::int64_t>(kh) * kw)));
}

}  // namespace

Tensor golden_avgpool(const Tensor& input, int kernel) {
  const int out_h = input.height / kernel;
  const int out_w = input.width / kernel;
  Tensor out = Tensor::zeros(input.channels, out_h, out_w);
  for (int c = 0; c < input.channels; ++c) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        out.at(c, oy, ox) = window_mean(input, c, oy * kernel, ox * kernel, kernel, kernel);
      }
    }
  }
  return out;
}

Tensor golden_global_avgpool(const Tensor& input) {
  Tensor out = Tensor::zeros(input.channels, 1, 1);
  for (int c = 0; c < input.channels; ++c) {
    out.at(c, 0, 0) = window_mean(input, c, 0, 0, input.height, input.width);
  }
  return out;
}

Tensor golden_dwconv2d(const Tensor& input, const std::vector<Fixed16>& weights,
                       const std::vector<Fixed16>& bias, int kernel, int stride) {
  const int out_h = (input.height - kernel) / stride + 1;
  const int out_w = (input.width - kernel) / stride + 1;
  assert(weights.size() ==
         static_cast<std::size_t>(input.channels) * kernel * kernel);
  assert(bias.size() == static_cast<std::size_t>(input.channels));
  Tensor out = Tensor::zeros(input.channels, out_h, out_w);
  for (int c = 0; c < input.channels; ++c) {
    for (int oy = 0; oy < out_h; ++oy) {
      for (int ox = 0; ox < out_w; ++ox) {
        Fixed16 acc = bias[static_cast<std::size_t>(c)];
        for (int ky = 0; ky < kernel; ++ky) {
          for (int kx = 0; kx < kernel; ++kx) {
            const Fixed16 w =
                weights[static_cast<std::size_t>((c * kernel + ky) * kernel + kx)];
            acc = acc + w * input.at(c, oy * stride + ky, ox * stride + kx);
          }
        }
        out.at(c, oy, ox) = acc;
      }
    }
  }
  return out;
}

Tensor golden_upsample_nn(const Tensor& input, int factor) {
  Tensor out = Tensor::zeros(input.channels, input.height * factor, input.width * factor);
  for (int c = 0; c < input.channels; ++c) {
    for (int y = 0; y < out.height; ++y) {
      for (int x = 0; x < out.width; ++x) {
        out.at(c, y, x) = input.at(c, y / factor, x / factor);
      }
    }
  }
  return out;
}

Tensor golden_relu(const Tensor& input) {
  Tensor out = input;
  for (Fixed16& v : out.data) v = fixed_relu(v);
  return out;
}

std::vector<Fixed16> golden_fc(const std::vector<Fixed16>& input,
                               const std::vector<Fixed16>& weights,
                               const std::vector<Fixed16>& bias, int outputs) {
  assert(weights.size() == static_cast<std::size_t>(outputs) * input.size());
  assert(bias.size() == static_cast<std::size_t>(outputs));
  std::vector<Fixed16> out(static_cast<std::size_t>(outputs));
  for (int o = 0; o < outputs; ++o) {
    Fixed16 acc = bias[static_cast<std::size_t>(o)];
    for (std::size_t i = 0; i < input.size(); ++i) {
      acc = acc + weights[static_cast<std::size_t>(o) * input.size() + i] * input[i];
    }
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

Tensor golden_add(const std::vector<const Tensor*>& inputs) {
  assert(inputs.size() >= 2);
  Tensor out = *inputs.front();
  for (std::size_t k = 1; k < inputs.size(); ++k) {
    const Tensor& in = *inputs[k];
    assert(in.data.size() == out.data.size());
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      out.data[i] = out.data[i] + in.data[i];  // Fixed16::+ saturates
    }
  }
  return out;
}

Tensor golden_concat(const std::vector<const Tensor*>& inputs) {
  assert(inputs.size() >= 2);
  int channels = 0;
  for (const Tensor* in : inputs) {
    assert(in->height == inputs.front()->height && in->width == inputs.front()->width);
    channels += in->channels;
  }
  Tensor out{channels, inputs.front()->height, inputs.front()->width, {}};
  out.data.reserve(static_cast<std::size_t>(channels) * out.height * out.width);
  for (const Tensor* in : inputs) {
    out.data.insert(out.data.end(), in->data.begin(), in->data.end());
  }
  return out;
}

}  // namespace fpgasim
