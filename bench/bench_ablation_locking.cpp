// Ablation C (Sec. IV-A2, "logic locking"): composing LeNet from locked
// checkpoints (only inter-component nets are routed) vs. unlocking
// everything and re-routing the entire design. Locking is what keeps the
// inter-component routing step small and the component QoR preserved.
#include "bench_common.h"
#include "place/place.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main() {
  const Device device = make_xcku5p_sim();
  const auto [model, impl, groups] = load_zoo_model("lenet");
  CheckpointStore store(StoreOptions{});
  CompileService service(device, store);

  Table table("Ablation C: logic locking of pre-implemented components");
  table.set_header({"configuration", "nets routed online", "route time (s)",
                    "Fmax (MHz)"});

  // Locked (the paper's flow).
  {
    const PreImplReport report = service.compile(model, impl, groups).report;
    table.add_row({"locked (paper flow)", std::to_string(report.route.nets_routed),
                   Table::fmt(report.route_seconds, 3),
                   Table::fmt(report.timing.fmax_mhz, 1)});
  }
  // Unlocked: strip every lock and every route after composition, then
  // route the whole design from scratch (Vivado would also re-place; we
  // keep placement to isolate the routing effect).
  {
    ComposedDesign composed = service.compile(model, impl, groups).design;
    for (NetId n = 0; n < composed.netlist.net_count(); ++n) {
      composed.netlist.net(n).routing_locked = false;
      composed.phys.routes[n] = RouteInfo{};
    }
    Stopwatch sw;
    const RouteResult route = route_design(device, composed.netlist, composed.phys);
    const double seconds = sw.seconds();
    const TimingResult timing = run_sta(composed.netlist, composed.phys, device);
    table.add_row({"unlocked (full re-route)", std::to_string(route.nets_routed),
                   Table::fmt(seconds, 3), Table::fmt(timing.fmax_mhz, 1)});
  }
  table.print();
  std::puts("paper: locking means 'the final inter-module routing with Vivado will only");
  std::puts("consider non-routed nets. This decreases compilation times and improves");
  std::puts("productivity.'");
  return 0;
}
