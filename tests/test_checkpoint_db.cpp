// Persistence of the checkpoint store, the paper's "database of pre-built
// checkpoints" (Fig. 3): put/get/contains, a branching-DFG component set
// surviving a reopen byte for byte, a store over a directory that does not
// exist yet, the checkpoint DRC gate on disk loads, and rejection of a
// corrupt entry file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "flow/build.h"
#include "flow/service.h"
#include "flow/store.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("fpgasim_store_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Checkpoint tiny_checkpoint(const std::string& name, double fmax) {
  NetlistBuilder b(name);
  const NetId a = b.in_port("in_data", 16);
  b.out_port("out_data", b.ff(a, kInvalidNet, 16));
  Checkpoint cp;
  cp.netlist = std::move(b).take();
  cp.phys.resize_for(cp.netlist);
  cp.pblock = Pblock{0, 0, 3, 3};
  cp.meta.fmax_mhz = fmax;
  return cp;
}

TEST(StorePersistence, PutGetContains) {
  const Device device = make_xcku5p_sim();
  CheckpointStore store(StoreOptions{.dir = fresh_dir("putget")});
  EXPECT_FALSE(store.contains("a", device));
  EXPECT_EQ(store.get("a", device), nullptr);
  store.put("a", device, tiny_checkpoint("a", 400));
  EXPECT_TRUE(store.contains("a", device));
  const auto got = store.get("a", device);
  ASSERT_NE(got, nullptr);
  EXPECT_DOUBLE_EQ(got->meta.fmax_mhz, 400);
  EXPECT_EQ(store.stats().entries, 1u);
  // Content-addressed: a second put of the same key keeps the first entry.
  store.put("a", device, tiny_checkpoint("a", 500));
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_DOUBLE_EQ(store.get("a", device)->meta.fmax_mhz, 400);
}

TEST(StorePersistence, BranchingDfgComponentsRoundTripAcrossReopen) {
  // Build the components of a branching model (residual blocks add a
  // stream-fork checkpoint alongside the group components) into an on-disk
  // store, reopen it, and require every entry to come back from disk and
  // re-serialize to exactly the bytes of its entry file.
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_resblock_net();
  const ModelImpl impl = choose_implementation(model, 200);
  const auto groups = default_grouping(model);
  const auto requests = component_requests(model, impl, groups);
  ASSERT_GT(requests.size(), groups.size()) << "expected fork checkpoints beyond the groups";
  const StoreOptions opt{.dir = fresh_dir("resblock")};
  {
    CheckpointStore store(opt);
    CompileService service(device, store);
    EXPECT_EQ(service.compile(model, impl, groups).built, requests.size());
  }

  CheckpointStore reopened(opt);
  ASSERT_TRUE(reopened.contains(fork_signature(2), device));
  const auto entries = reopened.index_entries();
  ASSERT_EQ(entries.size(), requests.size());
  const std::string resaved = opt.dir + "/resaved.fdcp.tmp";
  for (const CheckpointStore::IndexEntry& entry : entries) {
    EXPECT_EQ(std::filesystem::path(entry.path).filename(), entry.hash.hex() + ".fdcp");
    const auto checkpoint = reopened.get(entry.key, device);
    ASSERT_NE(checkpoint, nullptr) << entry.key;
    save_checkpoint(resaved, *checkpoint);
    EXPECT_EQ(file_bytes(resaved), file_bytes(entry.path))
        << entry.key << " changed across a reopen";
  }
  EXPECT_EQ(reopened.stats().disk_loads, requests.size());
  std::filesystem::remove_all(opt.dir);
}

TEST(StorePersistence, MissingDirectoryOpensEmpty) {
  const Device device = make_xcku5p_sim();
  const std::string dir = fresh_dir("missing") + "/not/yet/created";
  CheckpointStore store(StoreOptions{.dir = dir});
  EXPECT_TRUE(store.persistent());
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_FALSE(store.contains("conv_i1x4x4_o2_k3", device));
  EXPECT_EQ(store.get("conv_i1x4x4_o2_k3", device), nullptr);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST(StorePersistence, DrcGateRejectsXEscapingEntryOnDiskLoad) {
  // A BRAM with neither ROM contents nor a write port leaks uninitialized
  // state to the output: structurally sound, but an x-escape error of the
  // checkpoint DRC's dataflow rules. A default-opened store refuses to load
  // it from disk.
  const Device device = make_xcku5p_sim();
  NetlistBuilder b("xescape");
  const NetId addr = b.in_port("addr", 4);
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, -1, "uninit");
  b.out_port("out", b.ff(data, kInvalidNet, 8));
  Checkpoint defective;
  defective.netlist = std::move(b).take();
  defective.phys.resize_for(defective.netlist);
  defective.pblock = Pblock{0, 0, 3, 3};

  const std::string dir = fresh_dir("xescape");
  CheckpointStore(StoreOptions{.dir = dir}).put("xescape", device, defective);
  CheckpointStore reopened(StoreOptions{.dir = dir});
  EXPECT_TRUE(reopened.contains("xescape", device));
  try {
    reopened.get("xescape", device);
    FAIL() << "the store loaded an X-escaping entry";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("[x-escape]"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(StorePersistence, CorruptEntryIsRejected) {
  const Device device = make_xcku5p_sim();
  const std::string dir = fresh_dir("corrupt");
  std::string path;
  {
    CheckpointStore store(StoreOptions{.dir = dir});
    store.put("a", device, tiny_checkpoint("a", 400));
    path = store.index_entries().at(0).path;
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << "not an fdcp file";
  CheckpointStore reopened(StoreOptions{.dir = dir});
  EXPECT_TRUE(reopened.contains("a", device));
  EXPECT_THROW(reopened.get("a", device), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fpgasim
