#include "sim/stream.h"

#include <array>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "sim/compiled.h"
#include "sim/simulator.h"

namespace fpgasim {
namespace {

// Lane-vector port access: the interpreter is a one-lane design.
template <typename Sim>
void set_port(Sim& sim, const char* port, std::span<const std::uint64_t> lanes) {
  if constexpr (std::is_same_v<Sim, Simulator>) sim.set_input(port, lanes[0]);
  else sim.set_inputs(sim.plan().input_index(port), lanes);
}
template <typename Sim>
void get_port(const Sim& sim, const char* port, std::span<std::uint64_t> lanes) {
  if constexpr (std::is_same_v<Sim, Simulator>) lanes[0] = sim.get_output(port);
  else sim.get_outputs(sim.plan().output_index(port), lanes);
}

}  // namespace

template <typename Sim>
StreamRun drive_stream(Sim& sim, const std::vector<std::vector<Fixed16>>& inputs,
                       std::size_t outputs_per_lane, std::uint64_t max_cycles) {
  constexpr std::size_t kLanes = std::is_same_v<Sim, Simulator> ? 1 : SimContext::kLanes;
  const std::size_t lanes = inputs.size();
  if (lanes == 0 || lanes > kLanes) throw std::invalid_argument("drive_stream: lane count");
  StreamRun run;
  run.outputs.resize(lanes);
  run.last_output_cycle.assign(lanes, 0);
  std::vector<std::size_t> next(lanes, 0);  // next word to offer, per lane
  std::array<std::uint64_t, kLanes> valid{}, data{}, ready{}, out_valid{}, out_data{};
  for (std::size_t l = 0; l < lanes; ++l) ready[l] = 1;
  set_port(sim, "out_ready", ready);

  const auto finished = [&] {
    for (std::size_t l = 0; l < lanes; ++l) {
      if (next[l] < inputs[l].size() || run.outputs[l].size() < outputs_per_lane) return false;
    }
    return true;
  };
  while (!(run.complete = finished()) && run.cycles < max_cycles) {
    for (std::size_t l = 0; l < lanes; ++l) {
      valid[l] = next[l] < inputs[l].size();
      if (valid[l] != 0) data[l] = static_cast<std::uint16_t>(inputs[l][next[l]].raw);
    }
    set_port(sim, "in_valid", valid);
    set_port(sim, "in_data", data);
    get_port(sim, "in_ready", ready);  // before the edge
    sim.step();
    ++run.cycles;
    bool stalled = false;
    for (std::size_t l = 0; l < lanes; ++l) {
      const bool accepted = valid[l] != 0 && (ready[l] & 1) != 0;
      next[l] += accepted ? 1 : 0;
      stalled |= valid[l] != 0 && !accepted;
    }
    run.stalled_cycles += stalled ? 1 : 0;

    get_port(sim, "out_valid", out_valid);  // after the edge
    get_port(sim, "out_data", out_data);
    for (std::size_t l = 0; l < lanes; ++l) {
      if ((out_valid[l] & 1) == 0 || run.outputs[l].size() >= outputs_per_lane) continue;
      run.outputs[l].push_back(
          Fixed16{static_cast<std::int16_t>(static_cast<std::uint16_t>(out_data[l]))});
      run.last_output_cycle[l] = run.cycles;
    }
  }
  return run;
}

template StreamRun drive_stream(Simulator&, const std::vector<std::vector<Fixed16>>&,
                                std::size_t, std::uint64_t);
template StreamRun drive_stream(SimContext&, const std::vector<std::vector<Fixed16>>&,
                                std::size_t, std::uint64_t);

}  // namespace fpgasim
