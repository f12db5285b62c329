// The paper's deterministic claims, gated for every zoo model at its
// canonical configuration (load_zoo_model) and fixed seeds:
//   - the pre-implemented flow closes timing at least as fast as the
//     classic flow (paper Table III: 1.75x on LeNet, Fig. 7: 1.22x on VGG);
//   - the composed design is bounded by its slowest component (Sec. V-E);
//   - it uses no more LUTs, FFs or BRAMs than the classic flow, which pays
//     for phys-opt register insertion and driver replication, and no fewer
//     DSPs (Table II: identical MAC arrays, VGG 2116 -> 2123);
//   - composed and classic Fmax sit inside a +-0.1 MHz band around pinned
//     values, so any drift in the CAD stack needs a deliberate re-pin.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"

namespace fpgasim {
namespace {

struct PinnedFmax {
  double composed_mhz;
  double classic_mhz;
};

/// Re-pin (and say why in CHANGES.md) when a change moves these on
/// purpose.
const std::map<std::string, PinnedFmax> kPinned = {
    {"lenet", {163.84, 109.69}},    {"resblock", {236.46, 158.82}},
    {"vgg16", {68.05, 48.39}},      {"mobilenet", {129.63, 65.88}},
    {"resnet18", {135.82, 119.39}}, {"unet", {151.99, 115.53}},
    {"inception", {112.89, 99.82}},
};

constexpr double kPinToleranceMhz = 0.1;

class PaperClaims : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperClaims, HoldAtTheZooConfig) {
  const std::string name = GetParam();
  const auto pin = kPinned.find(name);
  ASSERT_NE(pin, kPinned.end()) << "no pinned Fmax for zoo model '" << name << "'";

  const Device device = make_xcku5p_sim();
  const auto [model, impl, groups] = load_zoo_model(name);
  CheckpointStore store(StoreOptions{});
  const PreImplReport pre = CompileService(device, store).compile(model, impl, groups).report;
  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState phys;
  const MonoReport mono = run_monolithic_flow(device, flat, phys);

  const double composed = pre.timing.fmax_mhz;
  const double classic = mono.timing.fmax_mhz;
  EXPECT_GE(composed, classic);
  ASSERT_GT(pre.slowest_component_mhz, 0.0);
  EXPECT_LE(composed, pre.slowest_component_mhz) << "slowest: " << pre.slowest_component;

  const ResourceVec& p = pre.stats.resources;
  const ResourceVec& c = mono.stats.resources;
  EXPECT_LE(p.lut, c.lut);
  EXPECT_LE(p.ff, c.ff);
  EXPECT_LE(p.bram, c.bram);
  EXPECT_GE(p.dsp, c.dsp);

  EXPECT_NEAR(composed, pin->second.composed_mhz, kPinToleranceMhz);
  EXPECT_NEAR(classic, pin->second.classic_mhz, kPinToleranceMhz);
}

std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for (const ZooEntry& entry : model_zoo()) names.emplace_back(entry.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PaperClaims, ::testing::ValuesIn(zoo_names()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

}  // namespace
}  // namespace fpgasim
