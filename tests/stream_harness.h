// Shared test harness: gtest wrappers around the stream driver
// (sim/stream.h) — one tensor (channel-major) through the interpreter, or
// SimContext::kLanes tensors at once through one context of the compiled
// bit-parallel simulator.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/compiled.h"
#include "sim/golden.h"
#include "sim/simulator.h"
#include "sim/stream.h"

namespace fpgasim::testhelpers {

/// Streams `input` into the component through the valid/ready driver
/// (sim/stream.h) and collects `expected_outputs` words. Fails the test if
/// the component does not take the whole input or produce enough outputs
/// within the cycle guard.
inline std::vector<Fixed16> run_stream(Simulator& sim, const std::vector<Fixed16>& input,
                                       std::size_t expected_outputs,
                                       std::uint64_t guard_cycles = 500000) {
  StreamRun run = drive_stream(sim, {input}, expected_outputs, guard_cycles);
  EXPECT_TRUE(run.complete) << "stream incomplete after " << run.cycles << " cycles";
  return std::move(run.outputs[0]);
}

/// Streams one input tensor per lane through a compiled-simulator context
/// and collects `expected_outputs` words per lane. The stream handshake of
/// these components is data-independent, so every lane must finish in
/// lock-step: the harness asserts that the last output word appeared in
/// the same cycle on every lane.
inline std::vector<std::vector<Fixed16>> run_stream_batch(
    SimContext& sim, const std::vector<std::vector<Fixed16>>& inputs,
    std::size_t expected_outputs, std::uint64_t guard_cycles = 500000) {
  StreamRun run = drive_stream(sim, inputs, expected_outputs, guard_cycles);
  EXPECT_TRUE(run.complete) << "batch incomplete after " << run.cycles << " cycles";
  for (std::size_t l = 1; l < run.last_output_cycle.size(); ++l) {
    EXPECT_EQ(run.last_output_cycle[l], run.last_output_cycle[0]) << "lane " << l;
  }
  return std::move(run.outputs);
}

inline void expect_tensor_eq(const std::vector<Fixed16>& got, const std::vector<Fixed16>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].raw, want[i].raw) << "word " << i;
  }
}

}  // namespace fpgasim::testhelpers
