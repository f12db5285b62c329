// Model zoo: one registry of every built-in CNN topology plus the tool
// dispatch configuration (DSP budget, tile cap) each one is evaluated
// with. The `fpga` CLI subcommands and the benches all resolve
// `--model <name>` through this table, so a new topology added here is
// immediately reachable everywhere.
#pragma once

#include <string>
#include <vector>

#include "cnn/model.h"

namespace fpgasim {

struct ZooEntry {
  const char* name = "";
  const char* description = "";
  CnnModel (*make)() = nullptr;
  long dsp_budget = 64;  // choose_implementation DSP pool
  int max_tile = 32;     // feature-map tiling cap
};

/// All built-in topologies, in registration order.
const std::vector<ZooEntry>& model_zoo();

/// Entry by name, or nullptr for an unknown model.
const ZooEntry* find_zoo_model(const std::string& name);

/// "lenet | resblock | vgg16 | ..." — for CLI usage/error text.
std::string zoo_model_names(const char* separator = " | ");

// -- topologies beyond the original three ------------------------------------

/// MobileNet-v1-style stack: conv stem, two depthwise-separable blocks
/// (dwconv + pointwise conv, the pair fused into one component by the
/// default grouping), global average pooling and an FC classifier.
CnnModel make_mobilenet_v1();

/// ResNet-18-style network: stem conv, a strided residual stage whose
/// shortcut is a 3x3/s2 projection conv (valid padding makes 1x1/s2
/// shapes unreachable), an identity residual stage, global average
/// pooling and an FC classifier. Exercises two stream forks and two adds.
CnnModel make_resnet18();

/// U-Net-style encoder/decoder: conv encoder, maxpool bottleneck conv,
/// nearest-neighbour upsample, skip concatenation with the encoder
/// feature map, decoder conv and an FC head. Exercises upsample + concat.
CnnModel make_unet();

/// Inception-style block: conv stem, a 4-way stream fork whose branches
/// (3x3 conv; 1x1->3x3 reduce; 1x1->3x3 "5x5 surrogate"; depthwise 3x3 +
/// pointwise 1x1) all map 6x6 -> 4x4 so a 4-input concat is shape-legal
/// under valid padding, then global average pooling and an FC classifier.
/// The widest fork/join in the zoo: one producer feeding four consumers
/// and a 4-way kConcat join.
CnnModel make_inception_block();

}  // namespace fpgasim
