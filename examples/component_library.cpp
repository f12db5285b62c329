// Component library curation: pre-implements a small catalog of reusable
// CNN components (the paper's "database of pre-built checkpoints") into an
// on-disk checkpoint store, reopens the store as a restarted process would
// and prints the catalog with the achieved QoR — the reuse story of
// Sec. IV-A. Entries are content-addressed (<dir>/<hash>.fdcp plus an
// index file), and each build seed derives from the entry's content hash.
//
// Usage: component_library [store_dir]
#include <algorithm>
#include <cstdio>
#include <string>

#include "flow/ooc.h"
#include "flow/service.h"
#include "flow/store.h"
#include "synth/kernels.h"
#include "synth/layers.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace fpgasim;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "/tmp/fpgasim_component_db";
  const Device device = make_xcku5p_sim();

  struct Entry {
    std::string key;
    Netlist netlist;
  };
  std::vector<Entry> catalog;
  // A spread of convolution engines...
  for (int k : {3, 5}) {
    for (int par : {1, 2, 4}) {
      ConvParams p;
      p.name = "conv" + std::to_string(k) + "x" + std::to_string(k) + "_p" +
               std::to_string(par);
      p.in_c = 4;
      p.out_c = 8;
      p.kernel = k;
      p.in_h = 16;
      p.in_w = 16;
      p.ic_par = par;
      p.oc_par = par;
      p.materialize_roms = false;
      catalog.push_back({p.name, make_conv_component(p, {}, {})});
    }
  }
  // ...pooling engines...
  for (int c : {4, 16}) {
    PoolParams p;
    p.name = "maxpool_c" + std::to_string(c);
    p.channels = c;
    p.kernel = 2;
    p.in_h = 16;
    p.in_w = 16;
    p.fuse_relu = true;
    catalog.push_back({p.name, make_pool_component(p)});
  }
  // ...and the four motivation kernels.
  for (KernelApp app : {KernelApp::kMatrixMult, KernelApp::kOuterProduct,
                        KernelApp::kRobertCross, KernelApp::kSmoothing}) {
    catalog.push_back({std::string("pe3x3_") + to_string(app),
                       make_kernel_component(app, to_string(app))});
  }

  // Function-optimize everything missing from the store, in parallel.
  CheckpointStore store(StoreOptions{.dir = dir});
  const std::string fabric = fabric_signature(device);
  parallel_for(0, catalog.size(), [&](std::size_t i) {
    if (store.contains(catalog[i].key, device)) return;
    OocOptions opt;
    opt.seed = CompileService::component_seed(
        opt, CheckpointStore::content_hash(catalog[i].key, fabric));
    OocResult result = implement_ooc(device, std::move(catalog[i].netlist), opt);
    store.put(catalog[i].key, device, std::move(result.checkpoint));
  });

  // A restart: a fresh store over the same directory replays the index and
  // loads (and DRC-gates) every entry from disk.
  CheckpointStore reloaded(StoreOptions{.dir = dir});
  auto entries = reloaded.index_entries();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  Table table("component store catalog");
  table.set_header({"component", "Fmax (MHz)", "pblock", "LUT", "DSP", "BRAM", "impl (s)"});
  double implement_seconds = 0.0;
  for (const CheckpointStore::IndexEntry& entry : entries) {
    const auto cp = reloaded.get(entry.key, device);
    const ResourceVec res = cp->netlist.stats().resources;
    table.add_row({entry.key, Table::fmt(cp->meta.fmax_mhz, 1), cp->pblock.to_string(),
                   std::to_string(res.lut), std::to_string(res.dsp),
                   std::to_string(res.bram), Table::fmt(cp->meta.implement_seconds, 2)});
    implement_seconds += cp->meta.implement_seconds;
  }
  std::printf("saved %zu checkpoints to %s, reloaded %llu\n", store.stats().entries,
              dir.c_str(), static_cast<unsigned long long>(reloaded.stats().disk_loads));
  table.print();
  std::printf("total offline function-optimization time: %.2fs\n", implement_seconds);
  return 0;
}
