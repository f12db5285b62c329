// Incremental negotiated-congestion (PathFinder-style) router over a
// coarse per-tile channel graph.
//
// Nodes are interconnect tiles; edges connect 4-neighbours with a fixed
// wire capacity per direction. Crossing an IO column costs extra delay
// (fabric discontinuities, Sec. V-E). Locked nets (pre-implemented
// components) keep their recorded routes and only charge edge usage; the
// inter-component routing step therefore only negotiates the unrouted
// nets, which is exactly what makes the pre-implemented flow fast.
//
// Negotiation is *incremental*: after the first iteration only nets whose
// route trees touch an overused edge (tracked through a per-edge -> net
// reverse index) are ripped up and rerouted, one after another in a fixed
// disjoint-box order (see DESIGN.md section 9). A bounded route (the OOC
// flow) allocates its graph and search state for `region` only, so its cost
// follows the pblock, not the device; results depend on the terminals'
// positions relative to the region alone, which makes a component's routes
// translation-invariant across column-compatible pblocks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "timing/delay_model.h"

namespace fpgasim {

struct RouteOptions {
  int channel_capacity = 14;  // wires per tile edge per direction
  int max_iterations = 18;    // PathFinder negotiation rounds
  double present_factor = 0.7;
  double history_factor = 0.35;
  double congestion_delay_factor = 0.25;  // slowdown on saturated edges
  std::uint64_t seed = 1;
  /// Extra terminal per net (partition pins of OOC ports): net -> tile.
  std::unordered_map<NetId, TileCoord> fixed_terminals;
  /// When set, the search never leaves this rectangle (OOC flow: keep all
  /// component routing inside its pblock so relocation stays legal). A
  /// driver, sink, fixed terminal or locked partial-route tile outside it
  /// fails the call with an error naming the net; fully locked routes are
  /// charged only where they lie inside it.
  bool bounded = false;
  Pblock region;
  /// Incremental rip-up: after iteration 1 only nets touching an overused
  /// edge are rerouted. `false` is the full rip-up oracle (every net, every
  /// iteration) that the incremental router is checked against.
  bool incremental = true;
  /// Initial expansion of the per-net A* bounding box beyond its terminals
  /// (tiles), and the extra margin granted each time congestion rips the
  /// net up again (the box grows until a detour fits).
  int bbox_margin = 3;
  int bbox_growth = 8;
};

/// Per-negotiation-round telemetry: the incremental router's work should
/// collapse after iteration 1 (rerouted tracks overuse, not net count).
struct RouteIterationStats {
  int nets_rerouted = 0;   // nets ripped up and rerouted this round
  long overused_edges = 0; // edges above capacity after the round
  int max_overuse = 0;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  std::size_t nets_routed = 0;
  std::size_t edges_used = 0;
  int max_overuse = 0;
  double total_wirelength = 0.0;
  double wall_seconds = 0.0;  // whole route_design call
  double cpu_seconds = 0.0;
  std::vector<RouteIterationStats> iteration_stats;
  std::string error;

  /// One-line per-iteration digest for flow logs:
  /// "i1: 42 rerouted/7 over ..." (empty when nothing was routed).
  std::string iteration_summary() const;
};

/// Routes every unrouted multi-terminal net in `netlist` whose endpoints
/// are placed, writing RouteInfo (edges + per-sink delays) into `phys`.
/// Locked/already-routed nets contribute their usage but are not ripped up.
/// A routed net that has gained sinks without delays (a stitched component
/// port) is extended incrementally from its existing route tree — the
/// partition-pin continuation of the inter-component routing step.
RouteResult route_design(const Device& device, const Netlist& netlist, PhysState& phys,
                         const RouteOptions& opt = RouteOptions{},
                         const DelayModel& dm = DelayModel{});

}  // namespace fpgasim
