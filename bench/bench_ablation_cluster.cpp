// Ablation D: cluster-size sweep for the baseline (classic) flow's
// placer — the quality/runtime knob commercial tools turn internally.
// Smaller clusters give the annealer finer moves (better HPWL/Fmax) at
// higher placement cost.
#include "bench_common.h"
#include "place/place.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main() {
  const Device device = make_xcku5p_sim();
  const auto [model, impl, groups] = load_zoo_model("lenet");

  Table table("Ablation D: baseline flow cluster-size sweep (LeNet)");
  table.set_header({"cluster size", "clusters", "place time (s)", "route time (s)",
                    "Fmax (MHz)"});
  for (int size : {1, 8, 24, 64, 200}) {
    Netlist flat = build_flat_netlist(model, impl, groups);
    const Clustering clustering = cluster_netlist(flat, size);
    PhysState phys;
    MonoOptions opt;
    opt.cluster_size = size;
    opt.phys_opt = false;  // isolate the placement effect
    const MonoReport report = run_monolithic_flow(device, flat, phys, opt);
    table.add_row({std::to_string(size), std::to_string(clustering.num_clusters),
                   Table::fmt(report.place_seconds, 2),
                   Table::fmt(report.route_seconds, 2),
                   Table::fmt(report.timing.fmax_mhz, 1)});
  }
  table.print();
  return 0;
}
