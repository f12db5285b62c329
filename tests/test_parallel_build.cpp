// Determinism contract of the parallel component build (CompileService):
// every thread-pool width must produce the same checkpoints, byte for byte
// once the recorded wall-times — measurements, not results — are
// normalized out, and the same composed design. Seeds derive from each
// component's content hash alone, so scheduling order cannot leak into the
// output.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "flow/build.h"
#include "flow/service.h"
#include "flow/store.h"

namespace fpgasim {
namespace {

/// Serialized bytes of a checkpoint with implement_seconds zeroed (wall
/// time is the one legitimately nondeterministic field of a checkpoint).
std::string normalized_bytes(const Checkpoint& checkpoint, const std::string& tag) {
  Checkpoint copy = checkpoint;
  copy.meta.implement_seconds = 0.0;
  const auto path =
      std::filesystem::path(::testing::TempDir()) / ("fpgasim_par_" + tag + ".fdcp");
  save_checkpoint(path.string(), copy);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  std::filesystem::remove(path);
  return out.str();
}

struct ParallelBuildFixture {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;

  ParallelBuildFixture() {
    // Four distinct components (both convs differ in input channels; the
    // pools differ in fused relu), so width > 1 actually overlaps work.
    // Spatial sizes: 14 -> 12 (c1) -> 6 (p1) -> 4 (c2) -> 2 (p2).
    model = parse_arch_def(R"(network par
input 2 14 14
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=4 k=3
pool p2 k=2
)");
    impl = choose_implementation(model, 12);
    groups = default_grouping(model);
  }

  struct Build {
    std::map<std::string, std::string> checkpoints;  // key -> normalized bytes
    std::string design;                              // design_fingerprint
    std::size_t built = 0;
  };

  /// Compiles the model on a fresh memory-only store with a `width`-wide
  /// build pool.
  Build build(std::size_t width) {
    ThreadPool pool(width);
    CheckpointStore store(StoreOptions{});
    CompileService service(device, store, ServiceOptions{.pool = &pool});
    const auto session = service.compile(model, impl, groups);
    Build out;
    out.built = session.built;
    out.design = design_fingerprint(session.design);
    for (const ComponentRequest& request : component_requests(model, impl, groups)) {
      const auto checkpoint = store.get(request.key, device);
      EXPECT_NE(checkpoint, nullptr) << request.key;
      if (checkpoint) {
        out.checkpoints[request.key] =
            normalized_bytes(*checkpoint, "w" + std::to_string(width));
      }
    }
    return out;
  }

  void expect_identical_across_widths(std::size_t components) {
    const Build serial = build(1);
    EXPECT_EQ(serial.built, components);
    ASSERT_EQ(serial.checkpoints.size(), components);
    for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
      const Build parallel = build(width);
      EXPECT_EQ(parallel.built, components) << "width " << width;
      EXPECT_EQ(parallel.design, serial.design) << "composed design differs at width "
                                                << width;
      ASSERT_EQ(parallel.checkpoints.size(), serial.checkpoints.size()) << "width " << width;
      for (const auto& [key, bytes] : serial.checkpoints) {
        const auto it = parallel.checkpoints.find(key);
        ASSERT_NE(it, parallel.checkpoints.end()) << "missing " << key << " at width "
                                                  << width;
        EXPECT_EQ(it->second, bytes) << "checkpoint " << key << " differs at width "
                                     << width;
      }
    }
  }
};

TEST(ParallelBuild, ChainIsByteIdenticalAcrossThreadCounts) {
  ParallelBuildFixture fixture;
  fixture.expect_identical_across_widths(4);
}

TEST(ParallelBuild, BranchingModelIsByteIdenticalAcrossThreadCounts) {
  // The resblock adds join components and a stream fork to the work list;
  // pool width must still not leak into any checkpoint.
  ParallelBuildFixture fixture;
  fixture.model = make_resblock_net();
  fixture.impl = choose_implementation(fixture.model, 16);
  fixture.groups = default_grouping(fixture.model);
  // 6 groups + the 2-way fork.
  fixture.expect_identical_across_widths(7);
}

TEST(ParallelBuild, CacheHitsSkipReimplementation) {
  ParallelBuildFixture fixture;
  ThreadPool pool(2);
  CheckpointStore store(StoreOptions{});
  CompileService service(fixture.device, store, ServiceOptions{.pool = &pool});
  EXPECT_EQ(service.compile(fixture.model, fixture.impl, fixture.groups).built, 4u);
  // Second session: everything is already in the store.
  const auto again = service.compile(fixture.model, fixture.impl, fixture.groups);
  EXPECT_EQ(again.built, 0u);
  EXPECT_EQ(again.store_hits, 4u);
  EXPECT_EQ(store.stats().puts, 4u);
}

}  // namespace
}  // namespace fpgasim
