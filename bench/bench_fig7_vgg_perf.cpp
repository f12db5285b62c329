// Figure 7 (rendered as a table in the paper): VGG-16 per-component
// frequency/latency and the full-network comparison (paper: 200 MHz
// baseline vs 243 MHz pre-implemented = 1.22x, latency 55.13 -> 56.67 ms
// = 1.02x).
#include "bench_common.h"

using namespace fpgasim;
using namespace fpgasim::bench;

int main() {
  const Device device = make_xcku5p_sim();
  NetworkRun run = run_network(device, "vgg16");

  Table table("Fig. 7: VGG-16 performance exploration (zoo config)");
  table.set_header({"component", "Fmax (MHz)", "latency (ms @ own Fmax)"});
  long total_cycles = 0;
  for (const auto& group : run.groups) {
    const auto cp = run.store->get(group_signature(run.model, run.impl, group), device);
    const ComponentLatency lat = group_latency(run.model, run.impl, group, cp->meta.fmax_mhz);
    table.add_row({cp->netlist.name(), Table::fmt(cp->meta.fmax_mhz, 1),
                   Table::fmt(lat.latency_us() / 1000.0, 3)});
    total_cycles += lat.cycles;
  }
  const double mono_ms = total_cycles / run.mono.timing.fmax_mhz / 1000.0;
  const double pre_ms = total_cycles / run.pre.timing.fmax_mhz / 1000.0;
  table.add_row({"VGG (classic)", Table::fmt(run.mono.timing.fmax_mhz, 1),
                 Table::fmt(mono_ms, 2)});
  table.add_row({"our work (pre-implemented)", Table::fmt(run.pre.timing.fmax_mhz, 1),
                 Table::fmt(pre_ms, 2)});
  table.print();

  std::printf("Fmax gain %.2fx (paper 1.22x), latency ratio %.2fx (paper 1.02x)\n",
              run.pre.timing.fmax_mhz / run.mono.timing.fmax_mhz, pre_ms / mono_ms);
  const bool claims = check_fmax_claims(run);
  std::puts("(paper components: 300-475 MHz, baseline VGG 200 MHz, composed 243 MHz;");
  std::puts(" fabric discontinuities around IO columns stretch VGG's datapaths, which");
  std::puts(" the routing model reproduces with its IO-column crossing penalty.)");

  // Simulation-engine throughput on the composed VGG netlist (DESIGN.md
  // §13), merged into BENCH_sim.json next to bench_table3's sections.
  const SimThroughput vgg =
      measure_sim_throughput(run.composed.netlist, "vgg16_preimpl", 24, 7, 8);
  print_sim_throughput(vgg);
  JsonWriter json;
  emit_sim_throughput(json, vgg);
  if (update_json_file("BENCH_sim.json", "vgg16", json.str())) {
    std::puts("wrote BENCH_sim.json (vgg16 section)");
  }
  return claims && vgg.ok() ? 0 : 1;
}
