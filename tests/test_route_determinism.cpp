// Determinism contract of the incremental router: routes, per-sink delay
// bit patterns and iteration telemetry are pinned as content hashes, so any
// refactor of the router's state layout or scheduling that drifts a single
// edge or delay bit fails here (DESIGN.md section 9). Also locks in the
// quality contract of incremental rip-up against the full rip-up oracle and
// the translation invariance of bounded (pblock) routing that relocation
// relies on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "flow/build.h"
#include "flow/ooc.h"
#include "flow/preimpl.h"
#include "flow/service.h"
#include "route/router.h"
#include "sim/golden.h"
#include "synth/builder.h"
#include "synth/layers.h"
#include "util/hash.h"

namespace fpgasim {
namespace {

void append_bits(std::string* out, double v) {
  unsigned long long bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  *out += std::to_string(bits);
  *out += ' ';
}

/// Exact byte-level fingerprint of everything the router produced:
/// route trees, per-sink delays (double bit patterns, not approximate
/// comparisons) and the result/telemetry counters. Wall/CPU seconds are
/// measurements, not results, and are excluded.
std::string fingerprint(const PhysState& phys, const RouteResult& result) {
  std::string fp;
  for (std::size_t n = 0; n < phys.routes.size(); ++n) {
    const RouteInfo& route = phys.routes[n];
    fp += "net " + std::to_string(n) + (route.routed ? " R " : " - ");
    for (const auto& [a, b] : route.edges) {
      fp += std::to_string(a.x) + "," + std::to_string(a.y) + "-" + std::to_string(b.x) +
            "," + std::to_string(b.y) + ";";
    }
    fp += " d:";
    for (double d : route.sink_delays_ns) append_bits(&fp, d);
    fp += '\n';
  }
  fp += "result " + std::to_string(result.success) + " " + std::to_string(result.iterations) +
        " " + std::to_string(result.nets_routed) + " " + std::to_string(result.edges_used) +
        " " + std::to_string(result.max_overuse) + " ";
  append_bits(&fp, result.total_wirelength);
  for (const RouteIterationStats& s : result.iteration_stats) {
    fp += "\niter " + std::to_string(s.nets_rerouted) + " " +
          std::to_string(s.overused_edges) + " " + std::to_string(s.max_overuse);
  }
  return fp;
}

std::string fingerprint_hash(const PhysState& phys, const RouteResult& result) {
  return hash128(fingerprint(phys, result)).hex();
}

/// A hand-placed design on the tiny device: FF-to-FF nets at given tiles.
struct FixtureDesign {
  Device device = make_tiny_device();
  Netlist netlist{"fixture"};
  PhysState phys;
  RouteOptions opt;

  CellId cell_at(TileCoord loc) {
    Cell c;
    c.type = CellType::kFf;
    c.width = 1;
    const CellId id = netlist.add_cell(std::move(c));
    phys.resize_for(netlist);
    phys.cell_loc[id] = loc;
    return id;
  }

  void add_net(TileCoord from, const std::vector<TileCoord>& tos) {
    const CellId d = cell_at(from);
    const NetId n = netlist.add_net(1);
    netlist.connect_output(d, 0, n);
    for (const TileCoord& to : tos) netlist.connect_input(cell_at(to), 0, n);
  }
};

/// Congested synthetic fabric: a corridor of parallel nets over capacity
/// (forces multi-iteration negotiation), vertical crossers (search boxes
/// overlapping the corridor's) and wide-fanout nets (exercises the BFS
/// nearest-target heuristic grid).
struct CongestedFixture : FixtureDesign {
  CongestedFixture() {
    for (int i = 0; i < 24; ++i) {
      add_net(TileCoord{2, 10 + i % 4}, {TileCoord{20, 10 + i % 4}});
    }
    for (int i = 0; i < 6; ++i) {
      add_net(TileCoord{4 + 2 * i, 4}, {TileCoord{4 + 2 * i, 24}});
    }
    // Two 12-sink nets (> 8 targets: grid heuristic path).
    for (int f = 0; f < 2; ++f) {
      std::vector<TileCoord> sinks;
      for (int i = 0; i < 12; ++i) {
        sinks.push_back(TileCoord{3 + (i % 6) * 3, 6 + 18 * f + (i / 6) * 3});
      }
      add_net(TileCoord{11, 8 + 14 * f}, sinks);
    }
    opt.channel_capacity = 3;
    opt.max_iterations = 80;
    opt.history_factor = 0.8;
  }
};

// Pinned from the batch-parallel router this serial router replaced; the
// two must agree bit for bit.
TEST(RouteDeterminism, CongestedFabricMatchesPinnedFingerprint) {
  CongestedFixture fixture;
  PhysState phys = fixture.phys;
  const RouteResult result = route_design(fixture.device, fixture.netlist, phys, fixture.opt);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.max_overuse, 0);
  EXPECT_EQ(result.iterations, 3);
  EXPECT_EQ(fingerprint_hash(phys, result), "8d95a395ef6528b8ebe54590a95ef4a7");

  // The full rip-up oracle is pinned as well.
  PhysState full_phys = fixture.phys;
  RouteOptions full_opt = fixture.opt;
  full_opt.incremental = false;
  const RouteResult full = route_design(fixture.device, fixture.netlist, full_phys, full_opt);
  ASSERT_TRUE(full.success);
  EXPECT_EQ(full.iterations, 3);
  EXPECT_EQ(fingerprint_hash(full_phys, full), "e441fc819ce687d326d0800700de530d");
}

// The worklist is routed in disjoint-box order, not plain net-index order:
// net 2's box is disjoint from net 0's, so it routes in net 0's round,
// ahead of net 1, whose box overlaps both. Net 2 therefore takes the shared
// row straight and net 1 detours around it; in net-index order it is the
// other way round, and every composed design's routes would change.
TEST(RouteDeterminism, OverlappingBoxesRouteInDisjointBoxOrder) {
  FixtureDesign design;
  design.add_net(TileCoord{0, 5}, {TileCoord{3, 5}});   // box x0..4
  design.add_net(TileCoord{4, 5}, {TileCoord{12, 5}});  // box x3..13
  design.add_net(TileCoord{7, 5}, {TileCoord{14, 5}});  // box x6..15
  design.opt.channel_capacity = 1;
  design.opt.bbox_margin = 1;
  PhysState phys = design.phys;
  const RouteResult result = route_design(design.device, design.netlist, phys, design.opt);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(phys.routes[2].edges.size(), 7u);  // straight
  EXPECT_GT(phys.routes[1].edges.size(), 8u);  // detour
  EXPECT_EQ(fingerprint_hash(phys, result), "6bc7792640ea3c7d391903f84b3bd6ee");
}

TEST(RouteDeterminism, LenetPreImplRoutingMatchesPinnedFingerprint) {
  // Build LeNet's components through the service (deterministic already,
  // see test_parallel_build), compose and place them, then run only the
  // inter-component routing stage.
  const Device device = make_xcku5p_sim();
  const CnnModel model = make_lenet5();
  const ModelImpl impl = choose_implementation(model, 200);
  const auto groups = default_grouping(model);
  CheckpointStore store(StoreOptions{});
  CompileService(device, store).compile(model, impl, groups);

  Composer composer("det_lenet");
  std::vector<std::shared_ptr<const Checkpoint>> chain;
  for (const auto& group : groups) {
    auto cp = store.get(group_signature(model, impl, group), device);
    ASSERT_NE(cp, nullptr);
    chain.push_back(std::move(cp));
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    composer.add_instance(*chain[i], "inst" + std::to_string(i), i);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    composer.connect(static_cast<int>(i), static_cast<int>(i + 1));
  }
  composer.expose_input(0);
  composer.expose_output(static_cast<int>(chain.size()) - 1);
  ComposedDesign composed = std::move(composer).finish();
  const MacroPlaceResult macro =
      place_macros(device, composed.macro_items(), composed.macro_nets, MacroPlaceOptions{});
  ASSERT_TRUE(macro.success);
  for (std::size_t i = 0; i < composed.instances.size(); ++i) {
    composed.translate_instance(i, macro.offsets[i].first, macro.offsets[i].second);
  }

  PhysState phys = composed.phys;
  const RouteResult result = route_design(device, composed.netlist, phys);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.max_overuse, 0);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(fingerprint_hash(phys, result), "0df213403e2d59a1485ae6223f358c38");
}

/// Routing a component bounded in two column-compatible pblocks (two legal
/// relocations of its OOC pblock, both away from the device origin) gives
/// the same route trees shifted by the anchor difference and bit-identical
/// sink delays.
TEST(RouteDeterminism, BoundedRouteIsTranslationInvariant) {
  const Device device = make_xcku5p_sim();
  ConvParams p;
  p.name = "conv_shift";
  p.in_c = 2;
  p.out_c = 2;
  p.kernel = 3;
  p.in_h = 6;
  p.in_w = 6;
  p.ic_par = 2;
  const Netlist component = make_conv_component(p, random_fixed(36, 501), random_fixed(2, 502));
  const OocResult ooc = implement_ooc(device, component);
  const Checkpoint& cp = ooc.checkpoint;

  std::vector<std::pair<int, int>> anchors;
  for (const auto& [dx, dy] : relocation_offsets(device, cp.pblock)) {
    const Pblock moved = cp.pblock.translated(dx, dy);
    if (moved.x0 > 0 && moved.y0 > 0 && dx != 0 && dy != 0) anchors.emplace_back(dx, dy);
  }
  ASSERT_GE(anchors.size(), 2u);
  const std::pair<int, int> a = anchors.front();
  const std::pair<int, int> b = anchors.back();
  ASSERT_NE(a.first, b.first);

  auto route_at = [&](std::pair<int, int> shift) {
    PhysState phys;
    phys.resize_for(cp.netlist);
    for (CellId c = 0; c < cp.netlist.cell_count(); ++c) {
      const TileCoord loc = cp.phys.cell_loc[c];
      phys.cell_loc[c] = TileCoord{loc.x + shift.first, loc.y + shift.second};
    }
    RouteOptions opt;
    opt.bounded = true;
    opt.region = cp.pblock.translated(shift.first, shift.second);
    for (std::size_t port = 0; port < cp.netlist.ports().size(); ++port) {
      const TileCoord pin = cp.port_pins[port];
      opt.fixed_terminals[cp.netlist.ports()[port].net] =
          TileCoord{pin.x + shift.first, pin.y + shift.second};
    }
    const RouteResult result = route_design(device, cp.netlist, phys, opt);
    EXPECT_TRUE(result.success) << result.error;
    return std::make_pair(phys, result);
  };
  const auto [phys_a, result_a] = route_at(a);
  const auto [phys_b, result_b] = route_at(b);
  EXPECT_EQ(result_a.iterations, result_b.iterations);
  EXPECT_EQ(result_a.nets_routed, result_b.nets_routed);
  EXPECT_GT(result_a.nets_routed, 0u);
  const int dx = b.first - a.first, dy = b.second - a.second;
  for (std::size_t n = 0; n < phys_a.routes.size(); ++n) {
    const RouteInfo& ra = phys_a.routes[n];
    const RouteInfo& rb = phys_b.routes[n];
    ASSERT_EQ(ra.routed, rb.routed) << "net " << n;
    ASSERT_EQ(ra.edges.size(), rb.edges.size()) << "net " << n;
    for (std::size_t e = 0; e < ra.edges.size(); ++e) {
      EXPECT_EQ(ra.edges[e].first.x + dx, rb.edges[e].first.x) << "net " << n;
      EXPECT_EQ(ra.edges[e].first.y + dy, rb.edges[e].first.y) << "net " << n;
      EXPECT_EQ(ra.edges[e].second.x + dx, rb.edges[e].second.x) << "net " << n;
      EXPECT_EQ(ra.edges[e].second.y + dy, rb.edges[e].second.y) << "net " << n;
    }
    ASSERT_EQ(ra.sink_delays_ns.size(), rb.sink_delays_ns.size()) << "net " << n;
    for (std::size_t k = 0; k < ra.sink_delays_ns.size(); ++k) {
      EXPECT_EQ(std::memcmp(&ra.sink_delays_ns[k], &rb.sink_delays_ns[k], sizeof(double)), 0)
          << "net " << n << " sink " << k;
    }
  }
}

TEST(RouteDeterminism, IncrementalMatchesFullRipUpQuality) {
  CongestedFixture fixture;

  PhysState incremental_phys = fixture.phys;
  RouteOptions opt = fixture.opt;
  opt.incremental = true;
  const RouteResult incremental =
      route_design(fixture.device, fixture.netlist, incremental_phys, opt);

  PhysState full_phys = fixture.phys;
  opt.incremental = false;
  const RouteResult full = route_design(fixture.device, fixture.netlist, full_phys, opt);

  // Both negotiate all overuse away.
  ASSERT_TRUE(incremental.success);
  ASSERT_TRUE(full.success);
  EXPECT_EQ(incremental.max_overuse, 0);
  EXPECT_EQ(full.max_overuse, 0);
  EXPECT_EQ(incremental.nets_routed, full.nets_routed);

  // Incremental rip-up shrinks the worklist: the first round routes every
  // net, later rounds only the congestion-involved ones — the count must
  // drop below the full net count as negotiation spreads the nets out
  // (full rip-up, by contrast, reroutes everything every round).
  ASSERT_GT(incremental.iterations, 1);
  const int first = incremental.iteration_stats[0].nets_rerouted;
  EXPECT_EQ(first, static_cast<int>(incremental.nets_routed));
  int min_later = first;
  for (std::size_t i = 1; i < incremental.iteration_stats.size(); ++i) {
    min_later = std::min(min_later, incremental.iteration_stats[i].nets_rerouted);
  }
  EXPECT_LT(min_later, first);
  for (const RouteIterationStats& s : full.iteration_stats) {
    EXPECT_EQ(s.nets_rerouted, static_cast<int>(full.nets_routed));
  }

  // Quality bound: the settled critical sink delay stays within 1% of the
  // full rip-up baseline.
  auto max_delay = [](const PhysState& phys) {
    double worst = 0.0;
    for (const RouteInfo& route : phys.routes) {
      if (!route.routed) continue;
      for (double d : route.sink_delays_ns) worst = std::max(worst, d);
    }
    return worst;
  };
  const double inc_delay = max_delay(incremental_phys);
  const double full_delay = max_delay(full_phys);
  ASSERT_GT(full_delay, 0.0);
  EXPECT_LE(inc_delay, full_delay * 1.01)
      << "incremental critical delay " << inc_delay << " vs full " << full_delay;
}

}  // namespace
}  // namespace fpgasim
