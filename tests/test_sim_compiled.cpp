// Compiled-vs-interpreter A/B equivalence: the interpreter is the oracle
// (sim/eval.h semantics contract), the compiled bit-parallel simulator
// must be bit-identical on every output, every cycle, every lane — on
// hand-built corner netlists, randomized synthetic netlists under dense
// and sparse (held-input) stimulus, and the real LeNet / VGG-16 /
// resblock designs through both flows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnn/zoo.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/preimpl.h"
#include "flow/service.h"
#include "sim/compiled.h"
#include "sim/eval.h"
#include "sim/simulator.h"
#include "stream_harness.h"
#include "synth/builder.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

using testhelpers::run_stream;
using testhelpers::run_stream_batch;

// ---------------------------------------------------------------------------
// Randomized synthetic netlists: every primitive kind, random widths,
// random connectivity.

Netlist random_netlist(std::uint64_t seed) {
  Rng rng(seed);
  NetlistBuilder b("fuzz" + std::to_string(seed));
  std::vector<NetId> pool;

  const int n_inputs = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n_inputs; ++i) {
    const auto width = static_cast<std::uint16_t>(1 + rng.next_below(24));
    pool.push_back(b.in_port("in" + std::to_string(i), width));
  }
  const auto pick = [&] { return pool[rng.next_below(pool.size())]; };
  const auto rand_width = [&] { return static_cast<std::uint16_t>(1 + rng.next_below(24)); };

  const int n_ops = 24 + static_cast<int>(rng.next_below(40));
  for (int i = 0; i < n_ops; ++i) {
    const std::uint16_t w = rand_width();
    NetId out = kInvalidNet;
    switch (rng.next_below(16)) {
      case 0: out = b.op2(LutOp::kAnd, pick(), pick(), w); break;
      case 1: out = b.op2(LutOp::kOr, pick(), pick(), w); break;
      case 2: out = b.op2(LutOp::kXor, pick(), pick(), w); break;
      case 3: out = b.not1(pick(), w); break;
      case 4: out = b.mux2(pick(), pick(), b.bit(pick(), 0), w); break;
      case 5: out = rng.next_below(2) != 0 ? b.eq(pick(), pick()) : b.ltu(pick(), pick()); break;
      case 6: out = rng.next_below(2) != 0 ? b.add(pick(), pick(), w) : b.sub(pick(), pick(), w); break;
      case 7: out = b.smax(pick(), pick(), w); break;
      case 8: out = b.relu(pick(), w); break;
      case 9:
        // DSP widths stay <= 24 so sext(a)*sext(b) cannot overflow int64.
        out = b.dsp(pick(), pick(), rng.next_below(2) != 0 ? pick() : kInvalidNet,
                    static_cast<int>(rng.next_below(9)), static_cast<int>(rng.next_below(4)),
                    w);
        break;
      case 10:
        out = b.ff(pick(), rng.next_below(2) != 0 ? b.bit(pick(), 0) : kInvalidNet, w);
        break;
      case 11:
        out = b.srl(pick(), rng.next_below(2) != 0 ? b.bit(pick(), 0) : kInvalidNet,
                    static_cast<std::uint16_t>(1 + rng.next_below(6)), w);
        break;
      case 12: {
        const std::uint32_t depth = 4 + static_cast<std::uint32_t>(rng.next_below(12));
        if (rng.next_below(2) != 0) {
          std::vector<std::uint64_t> words(depth);
          for (auto& word : words) word = rng();
          out = b.bram(pick(), kInvalidNet, kInvalidNet, depth, w, b.rom(std::move(words)));
        } else {
          out = b.bram(pick(), pick(), b.bit(pick(), 0), depth, w, -1, {},
                       rng.next_below(2) != 0 ? pick() : kInvalidNet);
        }
        break;
      }
      case 13: {
        const auto ctr =
            b.counter(1 + static_cast<std::uint32_t>(rng.next_below(9)), b.bit(pick(), 0), w);
        out = rng.next_below(2) != 0 ? ctr.value : ctr.wrap;
        break;
      }
      case 14: out = b.accum(pick(), b.bit(pick(), 0), b.bit(pick(), 0), w); break;
      case 15: {
        std::vector<NetId> choices;
        const std::size_t n = 3 + rng.next_below(3);
        for (std::size_t j = 0; j < n; ++j) choices.push_back(pick());
        out = b.muxn(choices, pick(), w);
        break;
      }
    }
    pool.push_back(out);
  }

  const int n_outputs = 3 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n_outputs; ++i) {
    // Bias toward recent nets so deep logic stays observable.
    const NetId net = pool[pool.size() - 1 - rng.next_below(pool.size() / 2)];
    b.out_port("out" + std::to_string(i), net);
  }
  return std::move(b).take();
}

TEST(CompiledPlan, RandomNetlistFuzzMatchesInterpreter) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Netlist nl = random_netlist(seed);
    ASSERT_TRUE(nl.validate().empty()) << "seed " << seed;
    const std::string diff = compare_compiled_vs_interpreter(nl, 48, 7000 + seed);
    EXPECT_EQ(diff, "") << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Hand-built corners the generators never produce.

TEST(CompiledPlan, MultiOutputCellsFanOutInBothSimulators) {
  Netlist nl("mo");
  const NetId a = nl.add_net(8, "a");
  nl.add_port({"a", PortDir::kInput, 8, a});
  const NetId q0 = nl.add_net(8, "q0");
  const NetId q1 = nl.add_net(8, "q1");
  Cell pass;
  pass.type = CellType::kLut;
  pass.op = LutOp::kPass;
  pass.width = 8;
  const CellId c = nl.add_cell(std::move(pass));
  nl.connect_input(c, 0, a);
  nl.connect_output(c, 0, q0);
  nl.connect_output(c, 1, q1);
  const NetId f0 = nl.add_net(8, "f0");
  const NetId f1 = nl.add_net(8, "f1");
  Cell ff;
  ff.type = CellType::kFf;
  ff.width = 8;
  const CellId fc = nl.add_cell(std::move(ff));
  nl.connect_input(fc, 0, q1);
  nl.connect_output(fc, 0, f0);
  nl.connect_output(fc, 1, f1);
  nl.add_port({"q0", PortDir::kOutput, 8, q0});
  nl.add_port({"q1", PortDir::kOutput, 8, q1});
  nl.add_port({"f0", PortDir::kOutput, 8, f0});
  nl.add_port({"f1", PortDir::kOutput, 8, f1});
  ASSERT_TRUE(nl.validate().empty());
  EXPECT_EQ(compare_compiled_vs_interpreter(nl, 16, 42), "");
}

TEST(CompiledPlan, WideWidthCellsAreDefinedAndMatch) {
  // Widths 63/64 exercise the clamp_signed / mask_width guards under the
  // sanitizer jobs in both evaluators.
  NetlistBuilder b("wide");
  const NetId a = b.in_port("a", 64);
  const NetId c = b.in_port("b", 63);
  b.out_port("p", b.dsp(a, c, kInvalidNet, 0, 1, 64));
  b.out_port("s", b.add(a, c, 64));
  b.out_port("m", b.smax(a, c, 63));
  const Netlist nl = std::move(b).take();
  EXPECT_EQ(compare_compiled_vs_interpreter(nl, 16, 43), "");
}

TEST(CompiledPlan, BatchApiDrivesLanesIndependently) {
  NetlistBuilder b("lanes");
  const NetId x = b.in_port("x", 16);
  const NetId en = b.in_port("en", 1);
  b.out_port("acc", b.accum(x, en, b.zero(1), 16));
  const Netlist nl = std::move(b).take();
  const auto plan = SimPlan::compile(nl);
  SimContext sim(plan);
  const int x_in = plan->input_index("x");
  const int en_in = plan->input_index("en");
  const int acc_out = plan->output_index("acc");

  std::uint64_t xs[SimContext::kLanes];
  std::uint64_t ens[SimContext::kLanes];
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    xs[l] = l + 1;
    ens[l] = l % 2;  // odd lanes accumulate, even lanes hold
  }
  sim.set_inputs(x_in, xs);
  sim.set_inputs(en_in, ens);
  sim.run(5);
  std::uint64_t acc[SimContext::kLanes];
  sim.get_outputs(acc_out, acc);
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    EXPECT_EQ(acc[l], l % 2 == 1 ? 5 * (l + 1) : 0u) << "lane " << l;
  }
  EXPECT_EQ(sim.cycle(), 5u);
  EXPECT_GT(plan->comb_ops(), 0u);
  EXPECT_GT(plan->levels(), 0u);
}

TEST(CompiledPlan, DetectsCombinationalLoop) {
  Netlist nl("loop");
  const NetId n1 = nl.add_net(1);
  const NetId n2 = nl.add_net(1);
  Cell c1;
  c1.type = CellType::kLut;
  c1.op = LutOp::kNot;
  const CellId a = nl.add_cell(std::move(c1));
  Cell c2;
  c2.type = CellType::kLut;
  c2.op = LutOp::kNot;
  const CellId b2 = nl.add_cell(std::move(c2));
  nl.connect_input(a, 0, n2);
  nl.connect_output(a, 0, n1);
  nl.connect_input(b2, 0, n1);
  nl.connect_output(b2, 0, n2);
  EXPECT_THROW(SimPlan::compile(nl), std::runtime_error);
}

TEST(CompiledPlan, RejectsMemoryOffsetsBeyond32Bits) {
  // 2^26 rows x 64 lanes fill the 32-bit writable-memory offset space
  // exactly, so the second memory's base would wrap to 0 and alias the
  // first. The plan holds no dense memory image, so this costs nothing.
  NetlistBuilder b("huge");
  const NetId addr = b.in_port("addr", 32);
  const NetId wdata = b.in_port("wdata", 8);
  const NetId we = b.in_port("we", 1);
  b.out_port("q0", b.bram(addr, wdata, we, 1u << 26, 8, -1, "first_mem"));
  b.out_port("q1", b.bram(addr, wdata, we, 16, 8, -1, "second_mem"));
  const Netlist nl = std::move(b).take();
  try {
    SimPlan plan(nl);
    FAIL() << "plan compiled with a wrapped memory offset";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("second_mem"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Writable memories across reset(): a context only restores the pages it
// wrote, so reuse must be indistinguishable from a fresh context.

// Drives `cycles` cycles of seeded random stimulus on every input port and
// lane; returns every output after each edge.
std::vector<std::uint64_t> drive_random(SimContext& ctx, int cycles, std::uint64_t seed) {
  const SimPlan& plan = ctx.plan();
  Rng rng(seed);
  std::vector<std::uint64_t> frame(plan.input_count() * SimContext::kLanes);
  std::vector<std::uint64_t> out(plan.output_count() * SimContext::kLanes);
  std::vector<std::uint64_t> trace;
  for (int c = 0; c < cycles; ++c) {
    for (std::uint64_t& word : frame) word = rng();
    ctx.set_input_frame(frame);
    ctx.step();
    ctx.get_output_frame(out);
    trace.insert(trace.end(), out.begin(), out.end());
  }
  return trace;
}

// A context dirtied by one stimulus and reset behaves exactly like a fresh
// one on an identical second stimulus: same outputs every cycle, same
// full-datapath digest.
void expect_reset_matches_fresh(const std::shared_ptr<const SimPlan>& plan,
                                std::uint64_t seed) {
  SimContext reused(plan);
  drive_random(reused, 64, seed);
  reused.reset();
  SimContext fresh(plan);
  EXPECT_EQ(drive_random(reused, 64, seed + 1), drive_random(fresh, 64, seed + 1));
  EXPECT_EQ(reused.state_digest(), fresh.state_digest());
}

TEST(CompiledPlan, ResetRestoresWritableMemoriesAcrossPages) {
  // A ROM-preloaded writable memory (37 rows) and a zero-initialized one
  // (100 rows): together 137 rows, several reset pages ending in a
  // partial one, with a page straddling the boundary between them.
  constexpr std::uint32_t kRows0 = 37;
  constexpr std::uint32_t kRows1 = 100;
  NetlistBuilder b("wmem_reset");
  const NetId waddr = b.in_port("waddr", 7);
  const NetId wdata = b.in_port("wdata", 16);
  const NetId we = b.in_port("we", 1);
  const NetId raddr = b.in_port("raddr", 7);
  Rng image_rng(77);
  std::vector<std::uint64_t> image(kRows0);
  for (auto& word : image) word = image_rng() | 1;  // nonzero after masking
  b.out_port("q0", b.bram(waddr, wdata, we, kRows0, 16, b.rom(image), {}, raddr));
  b.out_port("q1", b.bram(waddr, wdata, we, kRows1, 16, -1, {}, raddr));
  const Netlist nl = std::move(b).take();
  ASSERT_TRUE(nl.validate().empty());
  const auto plan = SimPlan::compile(nl);

  // Reads rows 0..kRows1 (the last one out of range) in every lane with
  // writes off: q0 and q1 for each lane, row-major.
  const auto sweep = [&](SimContext& ctx) {
    std::vector<std::uint64_t> rows;
    std::uint64_t q[SimContext::kLanes];
    for (std::uint32_t row = 0; row <= kRows1; ++row) {
      ctx.set_inputs(plan->input_index("we"), 0);
      ctx.set_inputs(plan->input_index("raddr"), row);
      ctx.step();
      for (const char* port : {"q0", "q1"}) {
        ctx.get_outputs(port, q);
        rows.insert(rows.end(), q, q + SimContext::kLanes);
      }
    }
    return rows;
  };

  SimContext reused(plan);
  drive_random(reused, 64, 501);  // random writes in every lane
  SimContext fresh(plan);
  const std::vector<std::uint64_t> want = sweep(fresh);
  const std::vector<std::uint64_t> dirty = sweep(reused);
  // Every in-range row was written in some lane, so the reset has work on
  // every page.
  for (std::uint32_t row = 0; row < kRows1; ++row) {
    for (int mem = 0; mem < 2; ++mem) {
      if (mem == 0 && row >= kRows0) continue;
      const std::size_t at = (row * 2 + static_cast<std::size_t>(mem)) * SimContext::kLanes;
      EXPECT_FALSE(std::equal(want.begin() + static_cast<std::ptrdiff_t>(at),
                              want.begin() + static_cast<std::ptrdiff_t>(at + SimContext::kLanes),
                              dirty.begin() + static_cast<std::ptrdiff_t>(at)))
          << "row " << row << " of memory " << mem << " never written";
    }
  }

  reused.reset();
  const std::vector<std::uint64_t> got = sweep(reused);
  ASSERT_EQ(got, want);
  Simulator sim(nl);
  sim.set_input("we", 0);
  for (std::uint32_t row = 0; row <= kRows1; ++row) {
    sim.set_input("raddr", row);
    sim.step();
    const std::uint64_t q0 = sim.get_output("q0");
    const std::uint64_t q1 = sim.get_output("q1");
    EXPECT_EQ(q0, row < kRows0 ? image[row] & 0xffff : 0) << "row " << row;
    for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
      ASSERT_EQ(got[(row * 2) * SimContext::kLanes + l], q0) << "row " << row << " lane " << l;
      ASSERT_EQ(got[(row * 2 + 1) * SimContext::kLanes + l], q1) << "row " << row << " lane " << l;
    }
  }

  expect_reset_matches_fresh(plan, 502);
}

// Memory-heavy netlists: writable BRAMs with and without ROM preloads
// (full or partial images), depths up to 100 rows so one memory spans
// several reset pages, single- and dual-port, with read values feeding
// other memories' addresses and data.
Netlist random_memory_netlist(std::uint64_t seed) {
  Rng rng(seed);
  NetlistBuilder b("memfuzz" + std::to_string(seed));
  std::vector<NetId> addrs;
  std::vector<NetId> data;
  for (int i = 0; i < 2; ++i) addrs.push_back(b.in_port("a" + std::to_string(i), 7));
  for (int i = 0; i < 2; ++i) {
    data.push_back(b.in_port("d" + std::to_string(i),
                             static_cast<std::uint16_t>(1 + rng.next_below(24))));
  }
  const NetId we = b.in_port("we", 4);
  const auto pick = [&](const std::vector<NetId>& pool) {
    return pool[rng.next_below(pool.size())];
  };

  const int n_mems = 2 + static_cast<int>(rng.next_below(4));
  for (int m = 0; m < n_mems; ++m) {
    const auto depth = 1 + static_cast<std::uint32_t>(rng.next_below(100));
    const auto width = static_cast<std::uint16_t>(1 + rng.next_below(24));
    std::int32_t rom_id = -1;
    if (rng.next_below(4) != 0) {
      std::vector<std::uint64_t> words(1 + rng.next_below(depth));
      for (auto& word : words) word = rng.next_below(3) != 0 ? rng() : 0;
      rom_id = b.rom(std::move(words));
    }
    const NetId raddr = rng.next_below(2) != 0 ? pick(addrs) : kInvalidNet;
    const NetId q = b.bram(pick(addrs), pick(data),
                           b.bit(we, static_cast<int>(rng.next_below(4))), depth, width,
                           rom_id, {}, raddr);
    b.out_port("q" + std::to_string(m), q);
    data.push_back(q);
    addrs.push_back(b.op2(LutOp::kXor, q, pick(addrs), 7));
  }
  return std::move(b).take();
}

TEST(CompiledPlan, PreloadedWritableMemoryFuzzMatchesInterpreterAndResets) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Netlist nl = random_memory_netlist(seed);
    ASSERT_TRUE(nl.validate().empty());
    const auto plan = SimPlan::compile(nl);
    EXPECT_EQ(compare_compiled_vs_interpreter(nl, 64, 9000 + seed, {}, plan), "");
    expect_reset_matches_fresh(plan, 9100 + seed);
  }
}

// ---------------------------------------------------------------------------
// Activity gating: a context evaluates only the ops whose input groups
// changed and skips depth-1 registers whose D and CE are quiet. Random
// stimulus that rewrites every port every cycle hides a missed change, so
// these tests hold inputs for random runs of cycles.

// Sparse stimulus: each input port keeps its value for a random run of
// cycles, then is redriven by a broadcast, a prefix of the lanes, a random
// subset of the lanes or all of them; some cycles also rewrite every port
// unchanged through set_input_frame, and outputs are read before the edge
// on about half the cycles (which moves the settle out of step()).
struct SparseStimulus {
  struct Drive {
    int port = 0;
    bool broadcast = false;
    std::vector<std::uint64_t> values;  // broadcast: one value; else lanes [0, size)
  };
  std::vector<std::vector<Drive>> drives;  // per cycle
  std::vector<char> frame;                 // per cycle
  std::vector<char> observe_pre_edge;      // per cycle
  std::vector<std::uint64_t> lane_inputs;  // [cycle][port][lane] after the drives
};

SparseStimulus make_sparse_stimulus(const SimPlan& plan, int cycles, std::uint64_t seed) {
  constexpr std::size_t kLanes = SimContext::kLanes;
  Rng rng(seed);
  SparseStimulus s;
  std::vector<std::uint64_t> cur(plan.input_count() * kLanes, 0);
  std::vector<std::uint64_t> hold(plan.input_count(), 0);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::vector<SparseStimulus::Drive> drives;
    for (std::size_t i = 0; i < plan.input_count(); ++i) {
      if (hold[i] > 0) {
        --hold[i];
        continue;
      }
      hold[i] = rng.next_below(12);
      std::uint64_t* v = &cur[i * kLanes];
      SparseStimulus::Drive d;
      d.port = static_cast<int>(i);
      switch (rng.next_below(4)) {
        case 0:
          d.broadcast = true;
          d.values = {rng()};
          std::fill_n(v, kLanes, d.values[0]);
          break;
        case 1: {
          const std::size_t n = 1 + rng.next_below(kLanes - 1);
          for (std::size_t l = 0; l < n; ++l) v[l] = rng();
          d.values.assign(v, v + n);
          break;
        }
        case 2:
          for (std::size_t l = 0; l < kLanes; ++l) {
            if (rng.next_below(4) == 0) v[l] = rng();
          }
          d.values.assign(v, v + kLanes);
          break;
        default:
          for (std::size_t l = 0; l < kLanes; ++l) v[l] = rng();
          d.values.assign(v, v + kLanes);
          break;
      }
      drives.push_back(std::move(d));
    }
    s.drives.push_back(std::move(drives));
    s.frame.push_back(rng.next_below(8) == 0 ? 1 : 0);
    s.observe_pre_edge.push_back(rng.next_below(2) == 0 ? 1 : 0);
    s.lane_inputs.insert(s.lane_inputs.end(), cur.begin(), cur.end());
  }
  return s;
}

// Every observed output frame in order, then every net of every lane.
std::vector<std::uint64_t> run_sparse(SimContext& ctx, const SparseStimulus& s) {
  const SimPlan& plan = ctx.plan();
  const std::size_t frame_words = plan.input_count() * SimContext::kLanes;
  std::vector<std::uint64_t> out(plan.output_count() * SimContext::kLanes);
  std::vector<std::uint64_t> trace;
  for (std::size_t cycle = 0; cycle < s.drives.size(); ++cycle) {
    for (const SparseStimulus::Drive& d : s.drives[cycle]) {
      if (d.broadcast) ctx.set_inputs(d.port, d.values[0]);
      else ctx.set_inputs(d.port, d.values);
    }
    if (s.frame[cycle] != 0) {
      ctx.set_input_frame({&s.lane_inputs[cycle * frame_words], frame_words});
    }
    if (s.observe_pre_edge[cycle] != 0) {
      ctx.get_output_frame(out);
      trace.insert(trace.end(), out.begin(), out.end());
    }
    ctx.step();
    ctx.get_output_frame(out);
    trace.insert(trace.end(), out.begin(), out.end());
  }
  for (std::size_t n = 0; n < plan.net_count(); ++n) {
    for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
      trace.push_back(ctx.peek_net(static_cast<NetId>(n), l));
    }
  }
  return trace;
}

// Replays every lane of `trace` through the interpreter; returns the first
// divergence or "".
std::string check_sparse_against_interpreter(const Netlist& nl, const SimPlan& plan,
                                             const SparseStimulus& s,
                                             const std::vector<std::uint64_t>& trace) {
  constexpr std::size_t kLanes = SimContext::kLanes;
  const std::size_t in_count = plan.input_count();
  const std::size_t out_count = plan.output_count();
  const std::size_t cycles = s.drives.size();
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    Simulator sim(nl);
    std::size_t at = 0;  // start of the next observed frame in `trace`
    const auto compare_outputs = [&](std::size_t cycle, const char* when) -> std::string {
      for (std::size_t o = 0; o < out_count; ++o) {
        const std::uint64_t want = sim.get_output(plan.output_name(o));
        const std::uint64_t have = trace[at + o * kLanes + lane];
        if (want != have) {
          return "cycle " + std::to_string(cycle) + " " + when + " port '" +
                 plan.output_name(o) + "' lane " + std::to_string(lane) + ": interpreter " +
                 std::to_string(want) + ", compiled " + std::to_string(have);
        }
      }
      at += out_count * kLanes;
      return {};
    };
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
      for (std::size_t i = 0; i < in_count; ++i) {
        sim.set_input(plan.input_name(i), s.lane_inputs[(cycle * in_count + i) * kLanes + lane]);
      }
      if (s.observe_pre_edge[cycle] != 0) {
        if (std::string diff = compare_outputs(cycle, "pre-edge"); !diff.empty()) return diff;
      }
      sim.step();
      if (std::string diff = compare_outputs(cycle, "post-edge"); !diff.empty()) return diff;
    }
    for (std::size_t n = 0; n < plan.net_count(); ++n) {
      const std::uint64_t want = sim.peek_net(static_cast<NetId>(n));
      const std::uint64_t have = trace[at + n * kLanes + lane];
      if (want != have) {
        return "net " + std::to_string(n) + " lane " + std::to_string(lane) +
               " at the end: interpreter " + std::to_string(want) + ", compiled " +
               std::to_string(have);
      }
    }
  }
  return {};
}

// A 6-input truth table whose pins 3-5 are the only inputs some cycles
// change, feeding a CE-gated register: gating must look past pins a/b/c.
Netlist truth6_netlist() {
  Netlist nl("truth6_gate");
  std::vector<NetId> pins;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "s" + std::to_string(i);
    const NetId net = nl.add_net(1, name);
    nl.add_port({name, PortDir::kInput, 1, net});
    pins.push_back(net);
  }
  Cell lut;
  lut.type = CellType::kLut;
  lut.op = LutOp::kTruth6;
  lut.init = 0x6996'9669'9669'6996ULL ^ 0x0123'4567'89ab'cdefULL;
  const CellId t = nl.add_cell(std::move(lut));
  for (std::size_t p = 0; p < pins.size(); ++p) nl.connect_input(t, p, pins[p]);
  const NetId tv = nl.add_net(1, "t");
  nl.connect_output(t, 0, tv);
  Cell ff;
  ff.type = CellType::kFf;
  const CellId r = nl.add_cell(std::move(ff));
  nl.connect_input(r, 0, tv);
  nl.connect_input(r, 1, pins[5]);
  const NetId rq = nl.add_net(1, "tq");
  nl.connect_output(r, 0, rq);
  nl.add_port({"t", PortDir::kOutput, 1, tv});
  nl.add_port({"tq", PortDir::kOutput, 1, rq});
  return nl;
}

TEST(CompiledPlan, SparseStimulusFuzzMatchesInterpreter) {
  std::vector<Netlist> netlists;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) netlists.push_back(random_netlist(seed));
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    netlists.push_back(random_memory_netlist(seed));
  }
  netlists.push_back(truth6_netlist());
  for (std::size_t k = 0; k < netlists.size(); ++k) {
    const Netlist& nl = netlists[k];
    SCOPED_TRACE(nl.name());
    ASSERT_TRUE(nl.validate().empty());
    const auto plan = SimPlan::compile(nl);
    const SparseStimulus s = make_sparse_stimulus(*plan, 96, 11000 + k);
    SimContext ctx(plan);
    const std::vector<std::uint64_t> trace = run_sparse(ctx, s);
    EXPECT_EQ(check_sparse_against_interpreter(nl, *plan, s, trace), "");
    ctx.reset();
    EXPECT_EQ(run_sparse(ctx, s), trace);
  }
}

// Comb cells reachable from `net` without crossing a register: the ops a
// change on `net` can reach within one settle.
std::size_t comb_cone(const Netlist& nl, NetId net) {
  std::vector<char> seen(nl.cell_count(), 0);
  std::vector<NetId> frontier{net};
  std::size_t cells = 0;
  while (!frontier.empty()) {
    const NetId n = frontier.back();
    frontier.pop_back();
    for (const auto& [sink, pin] : nl.net(n).sinks) {
      (void)pin;
      const Cell& cell = nl.cell(sink);
      if (seen[sink] != 0 || is_sequential_cell(cell)) continue;
      seen[sink] = 1;
      ++cells;
      for (const NetId out : cell.outputs) {
        if (out != kInvalidNet) frontier.push_back(out);
      }
    }
  }
  return cells;
}

TEST(CompiledPlan, GatedSettleRunsOnlyWhatChanged) {
  // Two independent registered datapaths of bijective ops, so every op
  // downstream of a change changes too.
  NetlistBuilder b("gated");
  const NetId x = b.in_port("x", 16);
  const NetId y = b.in_port("y", 16);
  const NetId x3 = b.xor2(b.add(b.not1(x, 16), b.constant(3, 16), 16), b.constant(0x5a, 16), 16);
  const NetId rx = b.ff(x3, kInvalidNet, 16);
  b.out_port("xo", b.not1(rx, 16));
  const NetId ry = b.ff(b.add(b.not1(y, 16), b.constant(7, 16), 16), kInvalidNet, 16);
  b.out_port("yo", b.not1(ry, 16));
  const Netlist nl = std::move(b).take();
  const auto plan = SimPlan::compile(nl);
  const int x_in = plan->input_index("x");
  const int xo = plan->output_index("xo");

  // Construction settles everything once; a reset does it again.
  SimContext ctx(plan);
  EXPECT_EQ(ctx.comb_evals(), plan->comb_ops());
  ctx.reset();
  EXPECT_EQ(ctx.comb_evals(), 2 * plan->comb_ops());

  // Held inputs: once the registers have captured, a step evaluates nothing.
  ctx.set_inputs(x_in, 1234);
  ctx.set_inputs(plan->input_index("y"), 99);
  ctx.run(3);
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t before = ctx.comb_evals();
    ctx.step();
    EXPECT_EQ(ctx.comb_evals() - before, 0u) << "held step " << i;
  }

  // Toggling x evaluates x's cone only: its comb ops before the edge, the
  // register's cone after it, then nothing.
  const std::size_t x_cone = comb_cone(nl, nl.find_port("x")->net);
  ASSERT_EQ(x_cone, 3u);
  ASSERT_LT(x_cone, plan->comb_ops());
  std::uint64_t before = ctx.comb_evals();
  ctx.set_inputs(x_in, 4321);
  (void)ctx.get_output(xo, 0);
  EXPECT_EQ(ctx.comb_evals() - before, x_cone);
  before = ctx.comb_evals();
  ctx.step();
  EXPECT_EQ(ctx.comb_evals() - before, comb_cone(nl, rx));
  EXPECT_EQ(ctx.get_output(xo, 0), (~((~4321u & 0xffff) + 3) ^ 0x5a) & 0xffff);
  before = ctx.comb_evals();
  ctx.step();
  EXPECT_EQ(ctx.comb_evals() - before, 0u);

  // Rewriting a port with the value it holds stamps it, but the change
  // dies at the first op.
  before = ctx.comb_evals();
  ctx.set_inputs(x_in, 4321);
  ctx.step();
  EXPECT_EQ(ctx.comb_evals() - before, 1u);
}

TEST(Interpreter, ResetMatchesFreshConstruction) {
  const auto check = [](const Netlist& nl, std::uint64_t seed) {
    SCOPED_TRACE(nl.name());
    std::vector<const Port*> ins;
    std::vector<const Port*> outs;
    for (const Port& port : nl.ports()) {
      (port.dir == PortDir::kInput ? ins : outs).push_back(&port);
    }
    const auto drive = [&](Simulator& sim, std::uint64_t stim_seed) {
      Rng rng(stim_seed);
      std::vector<std::uint64_t> trace;
      for (int cycle = 0; cycle < 48; ++cycle) {
        for (const Port* in : ins) sim.set_input(in->name, rng());
        sim.step();
        for (const Port* out : outs) trace.push_back(sim.get_output(out->name));
      }
      for (NetId n = 0; n < nl.net_count(); ++n) trace.push_back(sim.peek_net(n));
      return trace;
    };
    Simulator reused(nl);
    drive(reused, seed);
    reused.reset();
    EXPECT_EQ(reused.cycle(), 0u);
    Simulator fresh(nl);
    EXPECT_EQ(drive(reused, seed + 1), drive(fresh, seed + 1));
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) check(random_netlist(seed), 12000 + seed);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    check(random_memory_netlist(seed), 12100 + seed);
  }
}

// ---------------------------------------------------------------------------
// Real networks through both flows.

struct FlowPair {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  ComposedDesign composed;
  Netlist flat;

  explicit FlowPair(CnnModel m, long dsp_budget, int max_tile = 28) : model(std::move(m)) {
    impl = choose_implementation(model, dsp_budget, max_tile);
    groups = default_grouping(model);
    CheckpointStore store(StoreOptions{});
    composed = CompileService(device, store).compile(model, impl, groups).design;
    flat = build_flat_netlist(model, impl, groups);
    PhysState phys;
    run_monolithic_flow(device, flat, phys);
  }
};

TEST(CompiledPlan, LeNetBothFlowsMatchInterpreter) {
  FlowPair f(make_lenet5(), 16);
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 32, 1001), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 32, 1002), "");
}

TEST(CompiledPlan, ResblockBothFlowsMatchInterpreter) {
  FlowPair f(make_resblock_net(), 16);
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 32, 1003), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 32, 1004), "");
}

TEST(CompiledPlan, Vgg16BothFlowsMatchInterpreter) {
  // Bounded random stimulus, sampled lanes: the full interpreter replay of
  // all 64 lanes on VGG is exactly the cost this simulator exists to avoid.
  FlowPair f(make_vgg16(), 384, 14);
  const std::vector<int> lanes{0, 13, 37, 63};
  EXPECT_EQ(compare_compiled_vs_interpreter(f.composed.netlist, 12, 1005, lanes), "");
  EXPECT_EQ(compare_compiled_vs_interpreter(f.flat, 12, 1006, lanes), "");
}

TEST(CompiledPlan, ResblockBatchInferenceBitMatchesGoldenAndInterpreter) {
  // 64 different input tensors at once through the composed resblock; every
  // lane must reproduce the golden DFG reference, and lane 17 is replayed
  // through the interpreter's stream harness as the oracle spot-check.
  FlowPair f(make_resblock_net(), 16);
  std::vector<std::vector<Fixed16>> inputs(SimContext::kLanes);
  std::vector<std::vector<Fixed16>> expected(SimContext::kLanes);
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 2000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(f.model, t);
  }
  SimContext cs(SimPlan::compile(f.composed.netlist));
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    ASSERT_EQ(out[l].size(), expected[l].size());
    for (std::size_t i = 0; i < out[l].size(); ++i) {
      ASSERT_EQ(out[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }

  Simulator sim(f.composed.netlist);
  const Tensor t17 = random_tensor(2, 8, 8, 2000 + 17);
  const auto interp = run_stream(sim, t17.data, expected[17].size());
  testhelpers::expect_tensor_eq(interp, out[17]);
}

TEST(CompiledPlan, LeNetStreamsTwoImagesPerLaneBackToBack) {
  // Two images per lane in one driver call: every lane waits out the
  // composed design's dropped in_ready between its images, produces both
  // images' words bit-exact and, the handshake being data-independent,
  // finishes in the same cycle as every other lane.
  const ZooModel m = load_zoo_model("lenet");
  CheckpointStore store(StoreOptions{});
  const ComposedDesign composed =
      CompileService(make_xcku5p_sim(), store).compile(m.model, m.impl, m.groups).design;
  std::vector<std::vector<Fixed16>> inputs(SimContext::kLanes);
  std::vector<std::vector<Fixed16>> expected(SimContext::kLanes);
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    for (std::uint64_t image = 0; image < 2; ++image) {
      const Tensor t = random_tensor(1, 32, 32, 4000 + 2 * l + image, 40);
      const std::vector<Fixed16> golden = reference_inference(m.model, t);
      inputs[l].insert(inputs[l].end(), t.data.begin(), t.data.end());
      expected[l].insert(expected[l].end(), golden.begin(), golden.end());
    }
  }
  SimContext cs(SimPlan::compile(composed.netlist));
  const StreamRun run = drive_stream(cs, inputs, expected[0].size(), 500000);
  ASSERT_TRUE(run.complete) << run.cycles << " cycles";
  EXPECT_GT(run.stalled_cycles, 0u);
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    EXPECT_EQ(run.last_output_cycle[l], run.last_output_cycle[0]) << "lane " << l;
    for (std::size_t i = 0; i < expected[l].size(); ++i) {
      ASSERT_EQ(run.outputs[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }
}

TEST(CompiledPlan, MiniChainBatchInferenceMatchesGolden) {
  // The small conv->pool+relu->conv chain from the flow tests, flat
  // (monolithic) this time, full inference on all 64 lanes.
  const CnnModel model = parse_arch_def(R"(network mini
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=2 k=3
)");
  const ModelImpl impl = choose_implementation(model, 12);
  const auto groups = default_grouping(model);
  Netlist flat = build_flat_netlist(model, impl, groups);
  PhysState phys;
  const Device device = make_xcku5p_sim();
  run_monolithic_flow(device, flat, phys);

  std::vector<std::vector<Fixed16>> inputs(SimContext::kLanes);
  std::vector<std::vector<Fixed16>> expected(SimContext::kLanes);
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    const Tensor t = random_tensor(2, 8, 8, 3000 + l);
    inputs[l] = t.data;
    expected[l] = reference_inference(model, t);
  }
  SimContext cs(SimPlan::compile(flat));
  const auto out = run_stream_batch(cs, inputs, expected[0].size());
  for (std::size_t l = 0; l < SimContext::kLanes; ++l) {
    ASSERT_EQ(out[l].size(), expected[l].size());
    for (std::size_t i = 0; i < out[l].size(); ++i) {
      ASSERT_EQ(out[l][i].raw, expected[l][i].raw) << "lane " << l << " word " << i;
    }
  }
}

}  // namespace
}  // namespace fpgasim
