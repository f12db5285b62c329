// Layer-descriptor registry invariants.
//
// Three gates keep the refactor honest:
//  1. Completeness: every LayerKind has a well-formed registry entry in
//     enumerator order, and the grammar keyword round-trips.
//  2. No stray dispatch: `switch`/`case` over LayerKind must not reappear
//     outside the registry itself (and the kernel library) — a source
//     scan over the whole tree enforces the single-table architecture.
//  3. Byte-stability: the checkpoint content hashes of every component of
//     the three pre-refactor models (lenet / resblock / vgg16), in
//     request order, are pinned to the values the pre-registry code
//     produced. A change here silently invalidates every stored
//     checkpoint database, so it must be deliberate.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cnn/registry.h"
#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/store.h"

namespace fpgasim {
namespace {

TEST(Registry, CoversEveryKindInOrder) {
  const auto& registry = layer_registry();
  ASSERT_EQ(registry.size(), static_cast<std::size_t>(kLayerKindCount));
  std::set<std::string> keywords;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const LayerTraits& traits = registry[i];
    EXPECT_EQ(static_cast<std::size_t>(traits.kind), i);
    EXPECT_STRNE(traits.keyword, "?") << "kind " << i << " has no keyword";
    EXPECT_TRUE(keywords.insert(traits.keyword).second)
        << "duplicate keyword '" << traits.keyword << "'";
    // The keyword is the parser's entry point and must round-trip.
    const LayerTraits* by_keyword = layer_traits_by_keyword(traits.keyword);
    ASSERT_NE(by_keyword, nullptr);
    EXPECT_EQ(by_keyword->kind, traits.kind);
    EXPECT_EQ(&layer_traits(traits.kind), &traits);
    // Serialization exists for every kind; inference and synthesis for
    // every kind but the model-input pseudo layer.
    EXPECT_NE(traits.emit, nullptr);
    if (traits.source) {
      EXPECT_EQ(traits.synth, nullptr);
      EXPECT_EQ(traits.golden, nullptr);
    } else {
      EXPECT_NE(traits.infer, nullptr);
      EXPECT_NE(traits.synth, nullptr) << traits.keyword;
      EXPECT_NE(traits.golden, nullptr) << traits.keyword;
    }
  }
  EXPECT_EQ(layer_traits_by_keyword("no_such_layer"), nullptr);
  // to_string is the signature vocabulary and resolves through the table.
  EXPECT_STREQ(to_string(LayerKind::kDwConv), "dwconv");
  EXPECT_STREQ(to_string(LayerKind::kGlobalAvgPool), "gavgpool");
}

TEST(Registry, NoLayerKindDispatchOutsideRegistry) {
  // The point of the registry: per-kind behaviour lives in exactly one
  // table. A `case LayerKind::` anywhere else means scattered dispatch is
  // creeping back in. Allowed: the registry itself and the kernel
  // library it points into.
  const std::set<std::string> allowed = {"src/cnn/registry.cpp", "src/synth/layers.cpp"};
  const std::filesystem::path root(FPGASIM_SOURCE_DIR);
  std::vector<std::string> offenders;
  for (const char* top : {"src", "tools", "examples", "bench"}) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root / top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".h") continue;
      std::ifstream in(entry.path());
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string text = buffer.str();
      if (text.find("case LayerKind::") == std::string::npos &&
          text.find("switch (layer.kind") == std::string::npos) {
        continue;
      }
      const std::string rel =
          std::filesystem::relative(entry.path(), root).generic_string();
      if (allowed.count(rel) == 0) offenders.push_back(rel);
    }
  }
  EXPECT_TRUE(offenders.empty())
      << "LayerKind dispatch outside the registry: " << [&] {
           std::string joined;
           for (const std::string& f : offenders) joined += f + " ";
           return joined;
         }();
}

struct Fingerprint {
  const char* key;
  const char* hash;
};

/// Pinned pre-refactor content hashes: CheckpointStore::content_hash over
/// the component_requests of each bundled model, in request order. These
/// are the identities of every checkpoint a pre-registry database holds —
/// byte-stability of signature text, weight seeds and netlist bytes all
/// collapse into this one comparison.
void expect_fingerprints(const char* model_name,
                         const std::vector<Fingerprint>& expected) {
  const auto [model, impl, groups] = load_zoo_model(model_name);
  const std::string fabric = fabric_signature(make_xcku5p_sim());
  const auto requests = component_requests(model, impl, groups);
  ASSERT_EQ(requests.size(), expected.size()) << model_name;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].key, expected[i].key) << model_name << " request " << i;
    EXPECT_EQ(CheckpointStore::content_hash(requests[i].key, fabric).hex(),
              expected[i].hash)
        << model_name << " component '" << requests[i].key << "'";
  }
}

TEST(Registry, LenetCheckpointHashesAreByteStable) {
  expect_fingerprints(
      "lenet",
      {
          {"conv_i1x32x32_o6_k5s1_p1x6_w1002", "2127e7238de1f2f35785c8347b7919bf"},
          {"pool_i6x28x28_o0_k2s1_p1x1_r", "89fdaa618f6f22fdf48bbe50d163ee59"},
          {"conv_i6x14x14_o16_k5s1_p6x4_w1006", "bfa1929e97e4d66c19bf497151297b51"},
          {"pool_i16x10x10_o0_k2s1_p1x1_r", "563157d7f411d3475a0df050cb857cc3"},
          {"fc_i16x5x5_o120_k1s1_p4x2_w1010", "ffd578ebcc9dc2d13be7f010e1ad5d70"},
          {"fc_i120x1x1_o10_k1s1_p2x1_w1012", "13a6aead33fc2c5af7f45653772c6b3b"},
      });
}

TEST(Registry, ResblockCheckpointHashesAreByteStable) {
  expect_fingerprints(
      "resblock",
      {
          {"conv_i2x8x8_o4_k3s1_p2x4_w1002", "a8e81235edeb2aa393c3e8315685517f"},
          {"conv_i4x6x6_o4_k1s1_p4x2_w1004", "18e28f3041e47f37087265d960d38a68"},
          {"conv_i4x6x6_o4_k1s1_p4x2_w1006", "847bbe4a3553a6ce021a6700489e8967"},
          {"add_i4x6x6_i4x6x6_o4", "6a0452e624bf609baa706e8a8548e6b1"},
          {"pool_i4x6x6_o0_k2s1_p1x1_r", "0c29749fc9cb4db7d8544a8c792a6473"},
          {"fc_i4x3x3_o8_k1s1_p4x1_w1012", "2d1d9db0b780dafc6d723151ac2367e8"},
          {"fork_x2_w16", "817e6268f2f3588af48435a9856b9b64"},
      });
}

TEST(Registry, Vgg16CheckpointHashesAreByteStable) {
  expect_fingerprints(
      "vgg16",
      {
          {"conv_i3x224x224_o64_k3s1_p1x2_t14x14_r_w1002",
           "f834cfe01a8345b3e98184fc02063fa4"},
          {"conv_i64x224x224_o64_k3s1_p8x4_t14x14_r_w1004",
           "749720ea16dcbd681ad350dfa22a968e"},
          {"pool_i64x224x224_o0_k2s1_p1x1_t14x14", "b0f76b544f473d60bf88ca5c0edb5e39"},
          {"conv_i64x112x112_o128_k3s1_p8x2_t14x14_r", "a3f2fdf54646b4d1d764bc4dee51aa41"},
          {"conv_i128x112x112_o128_k3s1_p8x4_t14x14_r", "78e5e8a134d83e9178160e820de4f60b"},
          {"pool_i128x112x112_o0_k2s1_p1x1_t14x14", "dcc20d946e3567612f817704da789561"},
          {"conv_i128x56x56_o256_k3s1_p8x2_t14x14_r", "f2c7cf54b84d7ff49c64e0d89b68744f"},
          {"conv_i256x56x56_o256_k3s1_p8x4_t14x14_r", "1b83c3272842af5b0ae68ece7df8e81f"},
          {"pool_i256x56x56_o0_k2s1_p1x1_t14x14", "c4052656e0ea0814781f606c2c5ade92"},
          {"conv_i256x28x28_o512_k3s1_p8x2_t14x14_r", "44b78d76c55b6446459a783e587bcd43"},
          {"conv_i512x28x28_o512_k3s1_p8x4_t14x14_r", "0e5bd177ed04df5bdbd3a7c8e223fa6d"},
          {"pool_i512x28x28_o0_k2s1_p1x1_t14x14", "64067309c253e8e21b91a0fd695a198b"},
          {"conv_i512x14x14_o512_k3s1_p4x2_r", "9401bed20c35f674e80034fcabdf4ed9"},
          {"pool_i512x14x14_o0_k2s1_p1x1", "f238c0df5f83d4cd9a4b5babb37c19c6"},
          {"fc_i512x7x7_o4096_k1s1_p2x1", "14e9ff53c89eb78736327a4b596df809"},
          {"fc_i4096x1x1_o4096_k1s1_p2x1", "6d6a0f68570454d544c6f4dae9860468"},
          {"fc_i4096x1x1_o1000_k1s1_p2x1", "a2f157ae52f5b7a7587bb13b4eb5f9b4"},
      });
}

TEST(Registry, PointwiseFusesIntoDepthwise) {
  // The grouping hook: a 1x1/s1 conv directly after a dwconv shares its
  // component; any other conv shape does not.
  const auto [model, impl, groups] = load_zoo_model("mobilenet");
  // Locate dw1: its group must also contain the following pointwise conv.
  int dw1 = -1;
  for (std::size_t i = 0; i < model.layers().size(); ++i) {
    if (model.layers()[i].name == "dw1") dw1 = static_cast<int>(i);
  }
  ASSERT_GE(dw1, 0);
  bool fused = false;
  for (const auto& group : groups) {
    for (std::size_t pos = 0; pos < group.size(); ++pos) {
      if (group[pos] != dw1) continue;
      ASSERT_LT(pos + 1, group.size()) << "dwconv ends its group";
      EXPECT_EQ(model.layers()[static_cast<std::size_t>(group[pos + 1])].name, "pw1");
      fused = true;
    }
  }
  EXPECT_TRUE(fused);
  // The signature of the fused group carries both stages.
  bool saw_pair = false;
  for (const auto& group : groups) {
    const std::string sig = group_signature(model, impl, group);
    if (sig.find("dwconv") != std::string::npos) {
      EXPECT_NE(sig.find("__conv"), std::string::npos) << sig;
      saw_pair = true;
    }
  }
  EXPECT_TRUE(saw_pair);
}

}  // namespace
}  // namespace fpgasim
