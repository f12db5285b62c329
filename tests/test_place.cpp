#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "place/place.h"
#include "synth/builder.h"
#include "synth/layers.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

/// Two cliques of items; the annealer should pull each clique together.
TEST(PlaceSa, ConnectedItemsEndUpClose) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(8);
  for (auto& item : items) item.res = ResourceVec{.lut = 4, .ff = 4};
  std::vector<PlaceNet> nets;
  nets.push_back(PlaceNet{{0, 1, 2, 3}, 1.0});
  nets.push_back(PlaceNet{{4, 5, 6, 7}, 1.0});

  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.bin_tiles = 2;
  opt.moves_per_item = 500;
  const SaResult result = place_sa(device, items, nets, opt);

  auto span = [&](std::initializer_list<int> group) {
    int min_x = 1 << 30, max_x = 0, min_y = 1 << 30, max_y = 0;
    for (int i : group) {
      const TileCoord c = result.bin_center(opt, result.item_bin[static_cast<std::size_t>(i)]);
      min_x = std::min(min_x, c.x);
      max_x = std::max(max_x, c.x);
      min_y = std::min(min_y, c.y);
      max_y = std::max(max_y, c.y);
    }
    return (max_x - min_x) + (max_y - min_y);
  };
  EXPECT_LE(span({0, 1, 2, 3}), 8);
  EXPECT_LE(span({4, 5, 6, 7}), 8);
  EXPECT_LE(result.final_hpwl, 16.0);
}

TEST(PlaceSa, FixedItemsStayPut) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(3);
  items[0].res = ResourceVec{.lut = 1};
  items[1].res = ResourceVec{.lut = 1};
  items[2].fixed = true;
  items[2].fixed_x = 20;
  items[2].fixed_y = 28;
  std::vector<PlaceNet> nets{PlaceNet{{0, 1, 2}, 1.0}};

  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.bin_tiles = 4;
  const SaResult result = place_sa(device, items, nets, opt);
  const TileCoord c = result.bin_center(opt, result.item_bin[2]);
  EXPECT_EQ(result.item_bin[2], (28 / 4) * result.bins_x + 20 / 4);
  // The movable items gravitate toward the fixed terminal.
  const TileCoord c0 = result.bin_center(opt, result.item_bin[0]);
  EXPECT_LE(std::abs(c0.x - c.x) + std::abs(c0.y - c.y), 12);
}

TEST(PlaceSa, ThrowsOnFixedItemOutsideRegion) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(2);
  items[0].res = ResourceVec{.lut = 1};
  items[1].fixed = true;
  items[1].fixed_x = 1;  // left of and below the region: used to produce a
  items[1].fixed_y = 2;  // negative bin index and out-of-bounds writes
  SaOptions opt;
  opt.region = Pblock{4, 4, 20, 28};
  opt.bin_tiles = 4;
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);

  items[1].fixed_x = 22;  // right of / above the region is just as illegal
  items[1].fixed_y = 30;
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);
}

TEST(PlaceSa, ClampsDegenerateInitialAccept) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(12);
  for (auto& item : items) item.res = ResourceVec{.lut = 2, .ff = 2};
  std::vector<PlaceNet> nets;
  for (int i = 0; i + 1 < 12; ++i) nets.push_back(PlaceNet{{i, i + 1}, 1.0});
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.bin_tiles = 4;
  opt.initial_accept = 1.0;  // -log(1) == 0: infinite start temperature
  const SaResult degenerate = place_sa(device, items, nets, opt);
  EXPECT_TRUE(std::isfinite(degenerate.final_cost));
  EXPECT_TRUE(std::isfinite(degenerate.final_hpwl));
  // Clamping must make 1.0 behave exactly like the clamp target, instead
  // of the accept-everything random walk an infinite temperature causes.
  SaOptions clamped = opt;
  clamped.initial_accept = 0.999;
  EXPECT_EQ(degenerate.item_bin, place_sa(device, items, nets, clamped).item_bin);
}

TEST(PlaceSa, ThrowsWhenDemandExceedsRegion) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(1);
  items[0].res = ResourceVec{.dsp = 10000};
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  EXPECT_THROW(place_sa(device, items, {}, opt), std::runtime_error);
}

TEST(PlaceSa, DeterministicForSameSeed) {
  const Device device = make_tiny_device();
  std::vector<PlaceItem> items(20);
  for (auto& item : items) item.res = ResourceVec{.lut = 2, .ff = 2};
  std::vector<PlaceNet> nets;
  for (int i = 0; i + 1 < 20; ++i) nets.push_back(PlaceNet{{i, i + 1}, 1.0});
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.seed = 99;
  const SaResult a = place_sa(device, items, nets, opt);
  const SaResult b = place_sa(device, items, nets, opt);
  EXPECT_EQ(a.item_bin, b.item_bin);
}

TEST(Clusterer, IdentityClusteringForTargetOne) {
  ConvParams p;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 3;
  p.in_h = 4;
  p.in_w = 4;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  EXPECT_EQ(clustering.num_clusters, nl.cell_count());
}

TEST(Clusterer, CoversEveryCellOnce) {
  ConvParams p;
  p.in_c = 2;
  p.out_c = 4;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 16);
  EXPECT_GT(clustering.num_clusters, 0u);
  EXPECT_LT(clustering.num_clusters, nl.cell_count());
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    ASSERT_GE(clustering.cell_cluster[c], 0);
    ASSERT_LT(static_cast<std::size_t>(clustering.cell_cluster[c]), clustering.num_clusters);
  }
}

TEST(Clusterer, LargerTargetGivesFewerClusters) {
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 8;
  p.in_w = 8;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const auto small = cluster_netlist(nl, 4);
  const auto large = cluster_netlist(nl, 64);
  EXPECT_GT(small.num_clusters, large.num_clusters);
}

TEST(PlaceModel, SkipsSingleClusterNets) {
  ConvParams p;
  p.in_c = 1;
  p.out_c = 1;
  p.kernel = 2;
  p.in_h = 4;
  p.in_w = 4;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  // One giant cluster: every net is internal, so no placement nets remain.
  const Clustering clustering = cluster_netlist(nl, 100000);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  EXPECT_EQ(items.size(), clustering.num_clusters);
  if (clustering.num_clusters == 1) {
    EXPECT_TRUE(nets.empty());
  }
  ResourceVec total;
  for (const auto& item : items) total += item.res;
  EXPECT_EQ(total, nl.stats().resources);
}

TEST(AssignCells, RespectsTileCapacities) {
  const Device device = make_tiny_device();
  ConvParams p;
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  p.oc_par = 2;
  p.materialize_roms = false;
  const Netlist nl = make_conv_component(p, {}, {});
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  opt.moves_per_item = 60;
  const SaResult placement = place_sa(device, items, nets, opt);
  PhysState phys;
  assign_cells_to_tiles(device, nl, clustering, placement, opt, phys);

  // Every cell with a footprint is placed in bounds; per-tile usage,
  // accounting for multi-tile spill, never exceeds the device total.
  ResourceVec used;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const TileCoord loc = phys.cell_loc[c];
    ASSERT_TRUE(device.in_bounds(loc.x, loc.y)) << nl.cell(c).name;
    used += Netlist::cell_footprint(nl.cell(c));
  }
  EXPECT_TRUE(used.fits_in(device.total()));
}

TEST(AssignCells, DspCellsAnchorInDspColumns) {
  const Device device = make_tiny_device();
  NetlistBuilder b("d");
  const NetId a = b.in_port("a", 16);
  b.out_port("p", b.dsp(a, a, kInvalidNet, 8, 1, 16));
  const Netlist nl = std::move(b).take();
  const Clustering clustering = cluster_netlist(nl, 1);
  std::vector<PlaceItem> items;
  std::vector<PlaceNet> nets;
  build_place_model(nl, clustering, items, nets);
  SaOptions opt;
  opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
  const SaResult placement = place_sa(device, items, nets, opt);
  PhysState phys;
  assign_cells_to_tiles(device, nl, clustering, placement, opt, phys);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (nl.cell(c).type == CellType::kDsp) {
      EXPECT_EQ(device.column_type(phys.cell_loc[c].x), ColumnType::kDsp);
    }
  }
}

/// Exact digest of an annealing result: every item's bin, the final cost's
/// bit pattern (hex float) and the move count.
std::string sa_digest(const SaResult& r) {
  std::string bins;
  for (int b : r.item_bin) bins += std::to_string(b) + ',';
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%a", r.final_cost);
  return hash128(bins).hex() + " " + cost + " " + std::to_string(r.moves);
}

// Seeded annealing instances pinned to the results of the full-recompute
// move evaluation the cached one replaced: a net that lists one item twice,
// an OOC-style pblock with fixed partition-pin tethers, and a one-bin region.
TEST(PlaceSa, SeededInstancesMatchPinned) {
  {
    const Device device = make_tiny_device();
    Rng rng(5);
    std::vector<PlaceItem> items(30);
    for (auto& item : items) {
      item.res = ResourceVec{.lut = static_cast<std::int64_t>(1 + rng.next_below(6)),
                             .ff = static_cast<std::int64_t>(rng.next_below(9)),
                             .carry = static_cast<std::int64_t>(rng.next_below(2))};
    }
    items[11].res = ResourceVec{.dsp = 1};
    std::vector<PlaceNet> nets;
    for (int i = 0; i + 1 < 30; ++i) nets.push_back(PlaceNet{{i, i + 1}, 1.0});
    nets.push_back(PlaceNet{{3, 7, 3}, 1.0});  // one item listed twice
    nets.push_back(PlaceNet{{0, 9, 18, 27, 11, 4, 22, 15, 6, 2}, 0.25});
    SaOptions opt;
    opt.region = Pblock{0, 0, device.width() - 1, device.height() - 1};
    opt.bin_tiles = 2;
    opt.moves_per_item = 300;
    opt.fill_limit = 0.8;
    opt.seed = 5;
    EXPECT_EQ(sa_digest(place_sa(device, items, nets, opt)),
              "45a28db09da704b04445d7472c74ed81 0x1.9cp+5 9024");
  }
  {
    const Device device = make_xcku5p_sim();
    const Pblock region{40, 60, 49, 79};
    Rng rng(9);
    std::vector<PlaceItem> items(60);
    for (auto& item : items) {
      item.res = ResourceVec{.lut = static_cast<std::int64_t>(rng.next_below(8)),
                             .ff = static_cast<std::int64_t>(rng.next_below(16))};
    }
    std::vector<PlaceNet> nets;
    for (int n = 0; n < 80; ++n) {
      PlaceNet net;
      const int fanout = 2 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < fanout; ++k) {
        net.items.push_back(static_cast<std::int32_t>(rng.next_below(60)));
      }
      nets.push_back(std::move(net));
    }
    // Partition pins: fixed items on the west / east edges, tethered to
    // the cells they serve with weight 2 (as the OOC flow does).
    for (int p = 0; p < 6; ++p) {
      PlaceItem pin;
      pin.fixed = true;
      pin.fixed_x = p < 3 ? region.x0 : region.x1;
      pin.fixed_y = region.y0 + 3 + 5 * (p % 3);
      const std::int32_t id = static_cast<std::int32_t>(items.size());
      items.push_back(pin);
      nets.push_back(PlaceNet{{id, 4 * p, 4 * p + 1, 4 * p + 2}, 2.0});
    }
    SaOptions opt;
    opt.region = region;
    opt.bin_tiles = 1;
    opt.moves_per_item = 120;
    opt.seed = 977 * 3 + 1;
    EXPECT_EQ(sa_digest(place_sa(device, items, nets, opt)),
              "f3dccd277217d9734960857d18f297e4 0x1.f5p+8 7248");
  }
  {
    const Device device = make_tiny_device();
    std::vector<PlaceItem> items(3);
    for (auto& item : items) item.res = ResourceVec{.lut = 2, .ff = 3};
    std::vector<PlaceNet> nets{PlaceNet{{0, 1, 2}, 1.0}};
    SaOptions opt;
    opt.region = Pblock{0, 0, 1, 1};
    opt.bin_tiles = 2;
    EXPECT_EQ(sa_digest(place_sa(device, items, nets, opt)),
              "0938747f98f9a94c3604b7e1ace25181 0x0p+0 0");
  }
}

/// Tile assignment as an O(r^2) square scan that skips the interior: the
/// reference the O(r) ring walk must reproduce tile for tile.
std::vector<TileCoord> reference_assignment(const Device& device, const Netlist& nl,
                                            const SaResult& placement, const SaOptions& opt) {
  const Pblock& region = opt.region;
  std::vector<ResourceVec> remaining(static_cast<std::size_t>(device.width()) * device.height());
  for (int x = 0; x < device.width(); ++x) {
    for (int y = 0; y < device.height(); ++y) {
      remaining[static_cast<std::size_t>(y) * device.width() + x] = device.tile_capacity(x, y);
    }
  }
  std::vector<TileCoord> loc(nl.cell_count(), kUnplaced);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    ResourceVec left = Netlist::cell_footprint(nl.cell(c));
    const TileCoord center = placement.bin_center(opt, placement.item_bin[c]);
    for (int radius = 0; radius <= std::max(device.width(), device.height()) && !left.is_zero();
         ++radius) {
      const int x_lo = std::max(region.x0, center.x - radius);
      const int x_hi = std::min({region.x1, device.width() - 1, center.x + radius});
      const int y_lo = std::max(region.y0, center.y - radius);
      const int y_hi = std::min({region.y1, device.height() - 1, center.y + radius});
      for (int gx = x_lo; gx <= x_hi && !left.is_zero(); ++gx) {
        for (int gy = y_lo; gy <= y_hi && !left.is_zero(); ++gy) {
          if (radius > 0 && gx != x_lo && gx != x_hi && gy != y_lo && gy != y_hi) continue;
          ResourceVec& have = remaining[static_cast<std::size_t>(gy) * device.width() + gx];
          const ResourceVec take{std::min(left.lut, have.lut), std::min(left.ff, have.ff),
                                 std::min(left.carry, have.carry), std::min(left.dsp, have.dsp),
                                 std::min(left.bram, have.bram)};
          if (take.is_zero()) continue;
          have -= take;
          left -= take;
          if (loc[c] == kUnplaced) loc[c] = TileCoord{gx, gy};
        }
      }
    }
  }
  return loc;
}

TEST(AssignCells, DenseSpillMatchesSquareScanReference) {
  const Device device = make_tiny_device();
  Netlist nl("dense");
  for (int i = 0; i < 30; ++i) {
    Cell cell;
    cell.type = i % 3 == 2 ? CellType::kFf : CellType::kAdd;
    cell.width = 24;
    nl.add_cell(std::move(cell));
  }
  const Clustering identity = cluster_netlist(nl, 1);
  SaOptions opt;
  opt.region = Pblock{1, 1, 10, 9};
  opt.bin_tiles = 4;
  SaResult placement;
  placement.bins_x = 3;
  placement.bins_y = 3;
  // Corner bins crowd against the clamped region edges; bin 8's center
  // (11, 11) lies outside the region, so its first rings are empty.
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    placement.item_bin.push_back(c % 4 == 3 ? 8 : (c % 4 == 1 ? 2 : 0));
  }
  PhysState phys;
  assign_cells_to_tiles(device, nl, identity, placement, opt, phys);
  const std::vector<TileCoord> expected = reference_assignment(device, nl, placement, opt);
  int far = 0;
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    EXPECT_EQ(phys.cell_loc[c], expected[c]) << "cell " << c;
    const TileCoord center = placement.bin_center(opt, placement.item_bin[c]);
    if (std::max(std::abs(expected[c].x - center.x), std::abs(expected[c].y - center.y)) > 1) {
      ++far;
    }
  }
  EXPECT_GT(far, 10);  // the case really spills beyond radius 1
}

}  // namespace
}  // namespace fpgasim
