#include "cnn/zoo.h"

#include <stdexcept>

namespace fpgasim {

CnnModel make_mobilenet_v1() {
  CnnModel model("mobilenet");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{4, 8, 8}});
  model.add(Layer{
      .kind = LayerKind::kConv, .name = "c1", .kernel = 3, .out_c = 8, .fuse_relu = true});
  // Two depthwise-separable blocks. Each dw/pw pair is fused into a single
  // component by default_grouping (pointwise_fuses_into).
  model.add(Layer{.kind = LayerKind::kDwConv, .name = "dw1", .kernel = 3, .fuse_relu = true});
  model.add(Layer{
      .kind = LayerKind::kConv, .name = "pw1", .kernel = 1, .out_c = 16, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kDwConv, .name = "dw2", .kernel = 3, .fuse_relu = true});
  model.add(Layer{
      .kind = LayerKind::kConv, .name = "pw2", .kernel = 1, .out_c = 8, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kGlobalAvgPool, .name = "gap"});  // 2x2 window
  model.add(Layer{.kind = LayerKind::kFc, .name = "head", .out_c = 10});
  model.infer_shapes();
  return model;
}

CnnModel make_resnet18() {
  CnnModel model("resnet18");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{2, 11, 11}});
  const int stem = model.add(Layer{
      .kind = LayerKind::kConv, .name = "stem", .kernel = 3, .out_c = 4, .fuse_relu = true});
  // Strided stage: the shortcut is a 3x3/s2 projection conv — with valid
  // padding a 1x1/s2 conv cannot reproduce the (h-3)/2+1 main-path shape.
  const int s1a = model.add(Layer{.kind = LayerKind::kConv,
                                  .name = "s1a",
                                  .kernel = 3,
                                  .stride = 2,
                                  .out_c = 8,
                                  .fuse_relu = true,
                                  .inputs = {stem}});
  const int s1b = model.add(Layer{
      .kind = LayerKind::kConv, .name = "s1b", .kernel = 1, .out_c = 8, .inputs = {s1a}});
  const int s1p = model.add(Layer{.kind = LayerKind::kConv,
                                  .name = "s1p",
                                  .kernel = 3,
                                  .stride = 2,
                                  .out_c = 8,
                                  .inputs = {stem}});
  const int a1 = model.add(Layer{
      .kind = LayerKind::kAdd, .name = "a1", .fuse_relu = true, .inputs = {s1b, s1p}});
  // Identity stage: two 1x1 convs on the main path, bare skip.
  const int s2a = model.add(Layer{.kind = LayerKind::kConv,
                                  .name = "s2a",
                                  .kernel = 1,
                                  .out_c = 8,
                                  .fuse_relu = true,
                                  .inputs = {a1}});
  const int s2b = model.add(Layer{
      .kind = LayerKind::kConv, .name = "s2b", .kernel = 1, .out_c = 8, .inputs = {s2a}});
  model.add(Layer{
      .kind = LayerKind::kAdd, .name = "a2", .fuse_relu = true, .inputs = {s2b, a1}});
  model.add(Layer{.kind = LayerKind::kGlobalAvgPool, .name = "gap"});  // 4x4 window
  model.add(Layer{.kind = LayerKind::kFc, .name = "head", .out_c = 10});
  model.infer_shapes();
  return model;
}

CnnModel make_unet() {
  CnnModel model("unet");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{2, 8, 8}});
  const int e1 = model.add(Layer{
      .kind = LayerKind::kConv, .name = "e1", .kernel = 3, .out_c = 4, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kPool, .name = "p1", .kernel = 2, .inputs = {e1}});
  model.add(Layer{
      .kind = LayerKind::kConv, .name = "b", .kernel = 1, .out_c = 8, .fuse_relu = true});
  const int u1 =
      model.add(Layer{.kind = LayerKind::kUpsample, .name = "u1", .kernel = 2});
  // Skip connection: decoder stream concatenated with the encoder map.
  model.add(Layer{.kind = LayerKind::kConcat, .name = "cat", .inputs = {u1, e1}});
  model.add(Layer{
      .kind = LayerKind::kConv, .name = "d1", .kernel = 3, .out_c = 4, .fuse_relu = true});
  model.add(Layer{.kind = LayerKind::kFc, .name = "head", .out_c = 8});
  model.infer_shapes();
  return model;
}

CnnModel make_inception_block() {
  CnnModel model("inception");
  model.add(Layer{.kind = LayerKind::kInput, .name = "in", .out_shape = Shape{4, 8, 8}});
  const int stem = model.add(Layer{
      .kind = LayerKind::kConv, .name = "stem", .kernel = 3, .out_c = 8, .fuse_relu = true});
  // Four branches off the stem (8@6x6). Valid padding means a concat
  // needs every branch at the same spatial shape, so each branch reduces
  // 6x6 -> 4x4 with exactly one 3x3 (the 1x1s are shape-preserving).
  const int b1 = model.add(Layer{.kind = LayerKind::kConv,
                                 .name = "b1",
                                 .kernel = 3,
                                 .out_c = 4,
                                 .fuse_relu = true,
                                 .inputs = {stem}});
  const int b2r = model.add(Layer{.kind = LayerKind::kConv,
                                  .name = "b2r",
                                  .kernel = 1,
                                  .out_c = 2,
                                  .fuse_relu = true,
                                  .inputs = {stem}});
  const int b2 = model.add(Layer{.kind = LayerKind::kConv,
                                 .name = "b2",
                                 .kernel = 3,
                                 .out_c = 4,
                                 .fuse_relu = true,
                                 .inputs = {b2r}});
  // "5x5 surrogate": Inception-v2-style reduction branch, narrower still.
  const int b3r = model.add(Layer{.kind = LayerKind::kConv,
                                  .name = "b3r",
                                  .kernel = 1,
                                  .out_c = 2,
                                  .fuse_relu = true,
                                  .inputs = {stem}});
  const int b3 = model.add(Layer{.kind = LayerKind::kConv,
                                 .name = "b3",
                                 .kernel = 3,
                                 .out_c = 2,
                                 .fuse_relu = true,
                                 .inputs = {b3r}});
  // Depthwise-separable branch: the dw/pw pair fuses into one component
  // under default_grouping, same as the MobileNet blocks.
  const int b4d = model.add(Layer{
      .kind = LayerKind::kDwConv, .name = "b4d", .kernel = 3, .fuse_relu = true,
      .inputs = {stem}});
  const int b4 = model.add(Layer{.kind = LayerKind::kConv,
                                 .name = "b4",
                                 .kernel = 1,
                                 .out_c = 2,
                                 .fuse_relu = true,
                                 .inputs = {b4d}});
  model.add(Layer{
      .kind = LayerKind::kConcat, .name = "cat", .inputs = {b1, b2, b3, b4}});
  model.add(Layer{.kind = LayerKind::kGlobalAvgPool, .name = "gap"});  // 4x4 window
  model.add(Layer{.kind = LayerKind::kFc, .name = "head", .out_c = 10});
  model.infer_shapes();
  return model;
}

const std::vector<ZooEntry>& model_zoo() {
  static const std::vector<ZooEntry> zoo = {
      {"lenet", "LeNet-5 (paper Table III)", make_lenet5, 64, 32},
      {"resblock", "residual block net (fork + add)", make_resblock_net, 64, 32},
      {"vgg16", "VGG-16 (tiled, streamed weights)", make_vgg16, 384, 14},
      {"mobilenet", "MobileNet-v1 style (dw/pw separable)", make_mobilenet_v1, 64, 32},
      {"resnet18", "ResNet-18 style (two residual stages)", make_resnet18, 64, 32},
      {"unet", "U-Net style (upsample + skip concat)", make_unet, 64, 32},
      {"inception", "Inception style (4-way fork -> concat)", make_inception_block, 64, 32},
  };
  return zoo;
}

const ZooEntry* find_zoo_model(const std::string& name) {
  for (const ZooEntry& entry : model_zoo()) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

std::string zoo_model_names(const char* separator) {
  std::string names;
  for (const ZooEntry& entry : model_zoo()) {
    if (!names.empty()) names += separator;
    names += entry.name;
  }
  return names;
}

ZooModel load_zoo_model(const std::string& name) {
  const ZooEntry* entry = find_zoo_model(name);
  if (entry == nullptr) {
    throw std::invalid_argument("unknown model '" + name + "' (" + zoo_model_names() + ")");
  }
  ZooModel m{entry->make(), {}, {}};
  m.impl = choose_implementation(m.model, entry->dsp_budget, entry->max_tile);
  m.groups = default_grouping(m.model);
  return m;
}

}  // namespace fpgasim
