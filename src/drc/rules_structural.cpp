// Netlist structural rules: driver uniqueness, hookup consistency, bus
// widths (stitch boundaries included), combinational loops, dead nets.
//
// All are defensive about malformed netlists (out-of-range ids, dangling
// references): they run over every checkpoint loaded from disk and must
// never crash.
#include <algorithm>
#include <vector>

#include "drc/rules.h"

namespace fpgasim {
namespace drc_detail {
namespace {

/// Marks nets bound to module ports (input ports may legally be driverless).
std::vector<bool> input_port_nets(const Netlist& nl) {
  std::vector<bool> flags(nl.net_count(), false);
  for (const Port& port : nl.ports()) {
    if (port.dir == PortDir::kInput && port.net < nl.net_count()) flags[port.net] = true;
  }
  return flags;
}

/// Instance index owning `cell`, or -1. Instances come from merge() and are
/// contiguous, so a linear scan over a handful of components is fine.
int instance_of(const std::vector<DrcInstance>& instances, CellId cell) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (cell >= instances[i].cell_begin && cell < instances[i].cell_end) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void check_net_driver(const DrcContext& ctx, Emitter& out) {
  const Netlist& nl = *ctx.netlist;
  // How many cell output pins claim each net.
  std::vector<int> driver_refs(nl.net_count(), 0);
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    for (NetId o : nl.cell(c).outputs) {
      if (o != kInvalidNet && o < nl.net_count()) ++driver_refs[o];
    }
  }
  const std::vector<bool> is_input = input_port_nets(nl);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (driver_refs[n] > 1) {
      out.emit(net_ref(nl, n) + " is driven by " + std::to_string(driver_refs[n]) +
                   " cell output pins",
               kInvalidCell, n);
      continue;
    }
    if (net.driver == kInvalidCell) {
      if (driver_refs[n] == 1) {
        out.emit(net_ref(nl, n) + " is claimed by a cell output pin but records no driver",
                 kInvalidCell, n);
      }
      continue;
    }
    if (net.driver >= nl.cell_count()) {
      out.emit(net_ref(nl, n) + " has an out-of-range driver cell", kInvalidCell, n);
      continue;
    }
    const Cell& drv = nl.cell(net.driver);
    if (net.driver_pin >= drv.outputs.size() || drv.outputs[net.driver_pin] != n) {
      out.emit(net_ref(nl, n) + " records " + cell_ref(nl, net.driver) + " pin " +
                   std::to_string(net.driver_pin) + " as driver, but that pin does not drive it",
               net.driver, n);
    }
    if (is_input[n]) {
      out.emit(net_ref(nl, n) + " is driven by " + cell_ref(nl, net.driver) +
                   " and by an input port",
               net.driver, n);
    }
  }
}

void check_net_dangling(const DrcContext& ctx, Emitter& out) {
  const Netlist& nl = *ctx.netlist;
  const std::vector<bool> is_input = input_port_nets(nl);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidCell && !net.sinks.empty() && !is_input[n]) {
      out.emit(net_ref(nl, n) + " has " + std::to_string(net.sinks.size()) +
                   " sinks but no driver and is not an input port",
               kInvalidCell, n);
    }
    for (const auto& [cell, pin] : net.sinks) {
      if (cell >= nl.cell_count()) {
        out.emit(net_ref(nl, n) + " has an out-of-range sink cell", kInvalidCell, n);
      } else if (pin >= nl.cell(cell).inputs.size() || nl.cell(cell).inputs[pin] != n) {
        out.emit(net_ref(nl, n) + " lists " + cell_ref(nl, cell) + " pin " +
                     std::to_string(pin) + " as sink, but that pin is not connected to it",
                 cell, n);
      }
    }
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    for (NetId in : cell.inputs) {
      if (in != kInvalidNet && in >= nl.net_count()) {
        out.emit(cell_ref(nl, c) + " input references an out-of-range net", c, kInvalidNet);
      }
    }
    for (std::uint16_t pin : required_input_pins(cell)) {
      if (pin >= cell.inputs.size() || cell.inputs[pin] == kInvalidNet) {
        out.emit(cell_ref(nl, c) + " required input pin " + std::to_string(pin) +
                     " is unconnected",
                 c, kInvalidNet);
      }
    }
  }
}

void check_net_width(const DrcContext& ctx, Emitter& out) {
  const Netlist& nl = *ctx.netlist;
  for (const Port& port : nl.ports()) {
    if (port.net >= nl.net_count()) {
      out.emit("port '" + port.name + "' is bound to an invalid net");
      continue;
    }
    if (nl.net(port.net).width != port.width) {
      out.emit("port '" + port.name + "' is " + std::to_string(port.width) +
                   " bits but its net is " + std::to_string(nl.net(port.net).width),
               kInvalidCell, port.net);
    }
  }
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidCell || net.driver >= nl.cell_count()) continue;
    const std::uint16_t expect = expected_output_width(nl.cell(net.driver));
    if (net.width != expect) {
      out.emit(net_ref(nl, n) + " is " + std::to_string(net.width) + " bits but its driver " +
                   cell_ref(nl, net.driver) + " produces " + std::to_string(expect),
               net.driver, n);
    }
  }
  // Data operand pins of registers, shift registers, adders, max and
  // ReLU cells must not be driven by a *wider* net (silent truncation).
  // Narrower nets are fine inside a component — the fabric zero-extends
  // implicitly, which the synthesized address arithmetic relies on — but
  // at a stitch boundary between two composed components the stream buses
  // must agree exactly.
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const Cell& cell = nl.cell(c);
    std::vector<std::uint16_t> data_pins;
    switch (cell.type) {
      case CellType::kFf:
      case CellType::kSrl:
      case CellType::kRelu:
        data_pins = {0};
        break;
      case CellType::kAdd:
      case CellType::kMax:
        data_pins = {0, 1};
        break;
      default:
        continue;
    }
    for (std::uint16_t pin : data_pins) {
      if (pin >= cell.inputs.size()) continue;
      const NetId in = cell.inputs[pin];
      if (in == kInvalidNet || in >= nl.net_count()) continue;
      const Net& net = nl.net(in);
      if (net.width > cell.width) {
        out.emit(cell_ref(nl, c) + " data pin " + std::to_string(pin) + " is " +
                     std::to_string(cell.width) + " bits but " + net_ref(nl, in) + " is " +
                     std::to_string(net.width) + " (truncation)",
                 c, in);
        continue;
      }
      if (net.width == cell.width || ctx.instances.empty()) continue;
      if (net.driver == kInvalidCell || net.driver >= nl.cell_count()) continue;
      const int from = instance_of(ctx.instances, net.driver);
      const int to = instance_of(ctx.instances, c);
      if (from >= 0 && to >= 0 && from != to) {
        out.emit("stitch boundary '" + ctx.instances[static_cast<std::size_t>(from)].name +
                     "' -> '" + ctx.instances[static_cast<std::size_t>(to)].name + "': " +
                     net_ref(nl, in) + " is " + std::to_string(net.width) + " bits but " +
                     cell_ref(nl, c) + " data pin " + std::to_string(pin) + " expects " +
                     std::to_string(cell.width),
                 c, in);
      }
    }
  }
}

/// Combinational successor cells of `c` (through any of its output nets).
void comb_successors(const Netlist& nl, CellId c, std::vector<CellId>& succ) {
  succ.clear();
  for (NetId o : nl.cell(c).outputs) {
    if (o == kInvalidNet || o >= nl.net_count()) continue;
    for (const auto& [sink, pin] : nl.net(o).sinks) {
      (void)pin;
      if (sink < nl.cell_count() && is_combinational(nl.cell(sink))) succ.push_back(sink);
    }
  }
}

// Iterative Tarjan over the cell graph restricted to combinational cells
// (registers break edges). Every non-trivial SCC (size > 1, or a
// self-loop) is one finding whose message spells the cycle as a named
// cell path. Deterministic: roots are visited in ascending cell id,
// successor order follows net sink order.
void check_comb_loop(const DrcContext& ctx, Emitter& out) {
  const Netlist& nl = *ctx.netlist;
  const std::size_t n = nl.cell_count();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<CellId> stack;                 // Tarjan SCC stack
  std::vector<std::vector<CellId>> succ(n);  // cached per visited cell
  std::uint32_t next_index = 0;

  struct Frame {
    CellId cell;
    std::size_t next_succ;
  };
  std::vector<Frame> dfs;
  const auto visit = [&](CellId c) {
    dfs.push_back({c, 0});
    index[c] = lowlink[c] = next_index++;
    stack.push_back(c);
    on_stack[c] = true;
    comb_successors(nl, c, succ[c]);
  };

  for (CellId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited || !is_combinational(nl.cell(root))) continue;
    visit(root);
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const CellId c = frame.cell;
      if (frame.next_succ < succ[c].size()) {
        const CellId s = succ[c][frame.next_succ++];
        if (index[s] == kUnvisited) {
          visit(s);
        } else if (on_stack[s]) {
          lowlink[c] = std::min(lowlink[c], index[s]);
        }
        continue;
      }
      // Frame exhausted: maybe an SCC root.
      if (lowlink[c] == index[c]) {
        std::vector<CellId> scc;
        for (;;) {
          const CellId m = stack.back();
          stack.pop_back();
          on_stack[m] = false;
          scc.push_back(m);
          if (m == c) break;
        }
        const bool self_loop =
            scc.size() == 1 && std::find(succ[c].begin(), succ[c].end(), c) != succ[c].end();
        if (scc.size() > 1 || self_loop) {
          // Tarjan pops the SCC in reverse DFS order; reverse it so the
          // path reads source -> ... -> sink -> source.
          std::reverse(scc.begin(), scc.end());
          std::string path;
          for (const CellId m : scc) path += cell_ref(nl, m) + " -> ";
          path += cell_ref(nl, scc.front());
          out.emit("combinational loop of " + std::to_string(scc.size()) + " cell" +
                       (scc.size() == 1 ? "" : "s") + ": " + path,
                   scc.front(), kInvalidNet);
        }
      }
      succ[c].clear();
      succ[c].shrink_to_fit();
      dfs.pop_back();
      if (!dfs.empty()) {
        lowlink[dfs.back().cell] = std::min(lowlink[dfs.back().cell], lowlink[c]);
      }
    }
  }
}

void check_net_dead(const DrcContext& ctx, Emitter& out) {
  const Netlist& nl = *ctx.netlist;
  std::vector<bool> port_ref(nl.net_count(), false);
  for (const Port& port : nl.ports()) {
    if (port.net < nl.net_count()) port_ref[port.net] = true;
  }
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kInvalidCell && net.sinks.empty() && !port_ref[n]) {
      out.emit(net_ref(nl, n) + " has no driver, sinks or port binding", kInvalidCell, n);
    }
  }
}

}  // namespace

void register_structural_rules(std::vector<DrcPass>& passes) {
  constexpr DrcSeverity kError = DrcSeverity::kError;
  passes.push_back({check_net_driver,
                    {{"net-driver", "every net has exactly one consistent driver",
                      kDrcStructural, kError}}});
  passes.push_back(
      {check_net_dangling,
       {{"net-dangling", "no undriven inputs, dangling sink references or missing required pins",
         kDrcStructural, kError}}});
  passes.push_back(
      {check_net_width,
       {{"net-width", "bus widths agree across net connections and stitch boundaries",
         kDrcStructural, kError}}});
  passes.push_back(
      {check_comb_loop,
       {{"comb-loop", "no combinational cycles (registers break edges); named cell paths",
         kDrcStructural, kError}}});
  passes.push_back({check_net_dead,
                    {{"net-dead", "no orphaned nets (typically left behind by alias_net)",
                      kDrcStructural, DrcSeverity::kWarning}}});
}

}  // namespace drc_detail
}  // namespace fpgasim
