// The traditional "classic" flow the paper compares against: flat
// synthesis, clustering, whole-device SA placement, full routing, physical
// optimization (register insertion + driver replication on failing paths),
// final STA. Stage wall times are recorded for the productivity
// comparisons (Fig. 6 / Fig. 1a).
#pragma once

#include <cstdint>

#include "drc/drc.h"
#include "fabric/device.h"
#include "netlist/netlist.h"
#include "netlist/phys.h"
#include "route/router.h"
#include "timing/sta.h"

namespace fpgasim {

struct MonoOptions {
  std::uint64_t seed = 1;
  int cluster_size = 24;
  double moves_per_item = 160.0;
  bool phys_opt = true;
  int replication_fanout = 48;  // duplicate drivers above this fanout
  RouteOptions route;
};

struct MonoReport {
  double cluster_seconds = 0.0;
  double place_seconds = 0.0;
  double route_seconds = 0.0;
  double phys_opt_seconds = 0.0;
  double sta_seconds = 0.0;
  double total_seconds = 0.0;      // wall time
  double total_cpu_seconds = 0.0;  // process CPU time over the same span

  NetlistStats stats;        // post-phys-opt
  TimingResult timing;
  RouteResult route;
  std::size_t inserted_ffs = 0;
  std::size_t replicated_drivers = 0;

  // DRC gate results.
  double drc_seconds = 0.0;
  DrcReport drc_place;  // structural + placement, after SA placement
  DrcReport drc;        // + routing and dataflow, after routing + phys_opt
};

/// Runs the baseline flow in place: `netlist` gains phys-opt cells and
/// `phys` receives placement + routing.
MonoReport run_monolithic_flow(const Device& device, Netlist& netlist, PhysState& phys,
                               const MonoOptions& opt = {});

}  // namespace fpgasim
