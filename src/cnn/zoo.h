// Model zoo: one registry of every built-in CNN topology plus the one
// implementation configuration (DSP budget, tile cap) each one is
// evaluated with. The `fpga` CLI, the benches, the examples and the tests
// all resolve a model name through load_zoo_model, so a topology added
// here is immediately reachable everywhere, and a figure quoted for a
// model always means its entry's configuration.
#pragma once

#include <string>
#include <vector>

#include "cnn/impl.h"
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

/// A bundled network in its canonical configuration: the entry's model,
/// choose_implementation at the entry's DSP budget and tile cap, and the
/// default grouping.
struct ZooModel {
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
};

/// Resolves a zoo entry by name; throws std::invalid_argument naming the
/// zoo's models on an unknown name.
ZooModel load_zoo_model(const std::string& name);

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
