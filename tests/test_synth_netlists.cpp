// Characterization of the synthesis generators: pins the 128-bit content
// hash of every netlist src/synth builds for the model zoo, plus a small
// grid of non-zoo configurations. Cell and net creation order is part of a
// netlist (and of every hash, placement and route derived from it), so a
// refactor of the generators must leave these values alone; a deliberate
// netlist change updates exactly the entries it touches.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/service.h"
#include "sim/golden.h"
#include "synth/kernels.h"
#include "synth/layers.h"
#include "synth/streaming_conv.h"
#include "util/hash.h"

namespace fpgasim {
namespace {

using Pins = std::map<std::string, std::string>;

std::string netlist_fingerprint(const Netlist& netlist) {
  ComposedDesign design;
  design.netlist = netlist;
  return design_fingerprint(design);
}

void expect_pins(const Pins& got, const Pins& want) {
  for (const auto& [name, hash] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name << " was not built";
    EXPECT_EQ(it->second, hash) << name;
  }
  EXPECT_EQ(got.size(), want.size());
}

TEST(SynthNetlists, ZooComponentsAndFlatNetlists) {
  Pins got;
  for (const ZooEntry& entry : model_zoo()) {
    const ZooModel zm = load_zoo_model(entry.name);
    Hasher components;
    for (const ComponentRequest& request : component_requests(zm.model, zm.impl, zm.groups)) {
      components.str(request.key);
      components.str(netlist_fingerprint(build_component_netlist(zm.model, zm.impl, request)));
    }
    got[std::string(entry.name) + ".components"] = components.digest().hex();
    got[std::string(entry.name) + ".flat"] =
        netlist_fingerprint(build_flat_netlist(zm.model, zm.impl, zm.groups));
  }
  expect_pins(got, {
      {"inception.components", "549a8e6efc8fb917204145eb4238757b"},
      {"inception.flat", "f2a8ce3e4c0ad3c08f274aee1baf2c9e"},
      {"lenet.components", "5eefac49eb9cb2c39a29a6bb285c0087"},
      {"lenet.flat", "b25082d2d237109c7711e8110364463e"},
      {"mobilenet.components", "762fa6d50d57d8434af79d0a08a3483b"},
      {"mobilenet.flat", "a5821c8faf166d0c9cedbabc80ddc49d"},
      {"resblock.components", "00bc820e190aca5796ce753b6997f00d"},
      {"resblock.flat", "90302ff0380613af1cb357463e2e22dc"},
      {"resnet18.components", "524a81e1f7e7ded0a5395c1a4995565e"},
      {"resnet18.flat", "a6aa563bfcd928359a491cf97a11c1bc"},
      {"unet.components", "c62d9ac165a07eaa950969e7a57c2932"},
      {"unet.flat", "e05b5e7094a37f12e1a3df620e6dbca2"},
      {"vgg16.components", "8344c3248938e89778596b805d45b5b4"},
      {"vgg16.flat", "51de8d4b7e067941f8399969f050715a"},
  });
}

TEST(SynthNetlists, NonZooConfigurations) {
  Pins got;

  ConvParams conv;
  conv.name = "conv_par";
  conv.in_c = 4;
  conv.out_c = 4;
  conv.kernel = 3;
  conv.in_h = 9;
  conv.in_w = 9;
  conv.stride = 2;
  conv.ic_par = 2;
  conv.oc_par = 2;
  conv.dsp_stages = 2;
  conv.fuse_relu = true;
  got["conv_par"] = netlist_fingerprint(make_conv_component(
      conv, random_fixed(static_cast<std::size_t>(conv.weight_count()), 1), random_fixed(4, 2)));

  ConvParams wbuf;
  wbuf.name = "conv_wbuf";
  wbuf.in_c = 2;
  wbuf.out_c = 4;
  wbuf.in_h = 6;
  wbuf.in_w = 6;
  wbuf.materialize_roms = false;
  wbuf.weight_buffer_ocg = 2;
  got["conv_wbuf"] = netlist_fingerprint(make_conv_component(wbuf, {}, {}));

  got["fc"] = netlist_fingerprint(make_fc_component("fc", 12, 6, random_fixed(72, 3),
                                                    random_fixed(6, 4), 3, 2, true, 0, true));

  DwConvParams dw;
  dw.channels = 3;
  dw.stride = 2;
  dw.in_h = 7;
  dw.in_w = 7;
  dw.dsp_stages = 2;
  dw.fuse_relu = true;
  got["dwconv_s2"] = netlist_fingerprint(
      make_dwconv_component(dw, random_fixed(27, 7), random_fixed(3, 8)));

  AvgPoolParams avg;
  avg.channels = 2;
  avg.in_h = 4;
  avg.in_w = 4;
  avg.fuse_relu = true;
  got["avgpool"] = netlist_fingerprint(make_avgpool_component(avg));
  avg.kernel_h = 4;
  avg.kernel_w = 4;
  got["gavgpool"] = netlist_fingerprint(make_avgpool_component(avg));

  PoolParams pool;
  pool.channels = 2;
  pool.kernel = 3;
  pool.in_h = 6;
  pool.in_w = 6;
  pool.fuse_relu = true;
  got["pool_k3"] = netlist_fingerprint(make_pool_component(pool));

  got["upsample"] = netlist_fingerprint(make_upsample_component("up", 2, 3, 2, 3, true));
  got["add3"] = netlist_fingerprint(make_add_component("add", 10, 3, true));
  got["concat3"] = netlist_fingerprint(make_concat_component("cat", {4, 6, 5}, true));
  got["fifo"] = netlist_fingerprint(make_stream_fifo("fifo", 4));
  got["fork"] = netlist_fingerprint(make_stream_fork("fork", 3));
  for (KernelApp app : {KernelApp::kMatrixMult, KernelApp::kOuterProduct,
                        KernelApp::kRobertCross, KernelApp::kSmoothing}) {
    const std::string name = std::string("kernel_") + to_string(app);
    got[name] = netlist_fingerprint(make_kernel_component(app, name));
  }

  StreamingConvParams sconv;
  sconv.in_c = 2;
  sconv.out_c = 2;
  sconv.in_w = 6;
  sconv.fuse_relu = true;
  got["streaming_conv"] = netlist_fingerprint(
      make_streaming_conv_component(sconv, random_fixed(36, 5), random_fixed(2, 6)));

  expect_pins(got, {
      {"conv_par", "85577887ae7c6832813f364db2131073"},
      {"conv_wbuf", "0507958ee4edcce31db80b2c8cf6a4f2"},
      {"dwconv_s2", "f464e825f66fa393a40827e87d96756c"},
      {"avgpool", "429f6761162182620b9f3619e095e25c"},
      {"gavgpool", "0cf57a5a77341badd218596a77d66f8a"},
      {"pool_k3", "324816fb83c52f1c3dd346446814eeec"},
      {"upsample", "0b5788c3f2759a840204ac2ba05a78ca"},
      {"add3", "59c9e78fce80744d0ca22324dea6f2ef"},
      {"concat3", "58ab805bb170bf9d34383bc9ce622786"},
      {"fc", "cb7b1c80a47b72f9d7878189115cce89"},
      {"fifo", "cdd994cf07d5ae9e7725048be0f39516"},
      {"fork", "58f09c648889d7fac887b3a1d537d999"},
      {"kernel_MM", "1a073c6d5d794ae285965731f41d53b4"},
      {"kernel_OP", "522e7f67a122bfdd09ed39b71dfe6558"},
      {"kernel_RC", "e46e84e768a579823f660b1f83ff49da"},
      {"kernel_SM", "ba8f9265978a2c712aba661f25ddd720"},
      {"streaming_conv", "847d695b40fce3b0e2957a5b6ebbc667"},
  });
}

}  // namespace
}  // namespace fpgasim
