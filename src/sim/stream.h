// The valid/ready stream driver: the one place outside the components that
// speaks their stream protocol (src/synth/layers.h) to a simulated design.
// Per lane, in_valid stays high while words remain and in_data carries the
// next word; a word counts as accepted when in_ready read high before the
// clock edge, so a component may drop in_ready for as long as it computes
// or drains. out_ready is held high, and an output word is collected when
// out_valid reads high after the edge. Images streamed back to back are
// their words concatenated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fixed.h"

namespace fpgasim {

struct StreamRun {
  std::vector<std::vector<Fixed16>> outputs;  // per lane, at most outputs_per_lane
  /// Per lane, the driver cycle (1-based) after whose edge the last
  /// collected word appeared, 0 when none did. Lanes whose handshake does
  /// not depend on the data finish in lock-step, with equal entries.
  std::vector<std::uint64_t> last_output_cycle;
  std::uint64_t cycles = 0;          // cycles stepped by this call
  std::uint64_t stalled_cycles = 0;  // cycles where in_ready refused an offered word
  bool complete = false;  // every lane's words accepted and outputs collected
};

/// Streams inputs[l] into lane l of `sim` from its current state until
/// every lane is complete or max_cycles cycles have passed. Sim is
/// Simulator (one lane) or SimContext (1..kLanes lanes; the lanes beyond
/// inputs.size() see in_valid and out_ready low).
template <typename Sim>
StreamRun drive_stream(Sim& sim, const std::vector<std::vector<Fixed16>>& inputs,
                       std::size_t outputs_per_lane, std::uint64_t max_cycles);

}  // namespace fpgasim
