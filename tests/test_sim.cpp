#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "sim/eval.h"
#include "sim/fixed.h"
#include "sim/simulator.h"
#include "synth/builder.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

// The simulator keeps a reference to its netlist: a temporary must not
// compile, or `Simulator sim(make_component(...))` would dangle.
static_assert(std::is_constructible_v<Simulator, const Netlist&>);
static_assert(!std::is_constructible_v<Simulator, Netlist&&>);

struct Op2Case {
  LutOp op;
  std::uint64_t a, b, expected;
  std::uint16_t width;
};

class LutOps : public ::testing::TestWithParam<Op2Case> {};

TEST_P(LutOps, Evaluates) {
  const Op2Case& tc = GetParam();
  NetlistBuilder b("lut");
  const NetId a = b.in_port("a", tc.width);
  const NetId c = b.in_port("b", tc.width);
  b.out_port("q", b.op2(tc.op, a, c, tc.op == LutOp::kEq || tc.op == LutOp::kLtU ? 1 : tc.width));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("a", tc.a);
  sim.set_input("b", tc.b);
  EXPECT_EQ(sim.get_output("q"), tc.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table, LutOps,
    ::testing::Values(Op2Case{LutOp::kAnd, 0b1100, 0b1010, 0b1000, 4},
                      Op2Case{LutOp::kOr, 0b1100, 0b1010, 0b1110, 4},
                      Op2Case{LutOp::kXor, 0b1100, 0b1010, 0b0110, 4},
                      Op2Case{LutOp::kEq, 7, 7, 1, 8}, Op2Case{LutOp::kEq, 7, 8, 0, 8},
                      Op2Case{LutOp::kLtU, 3, 9, 1, 8}, Op2Case{LutOp::kLtU, 9, 3, 0, 8},
                      Op2Case{LutOp::kPass, 0x5A, 0, 0x5A, 8}));

TEST(Simulator, NotAndMux) {
  NetlistBuilder b("m");
  const NetId a = b.in_port("a", 4);
  const NetId c = b.in_port("b", 4);
  const NetId sel = b.in_port("sel", 1);
  b.out_port("mux", b.mux2(a, c, sel, 4));
  b.out_port("inv", b.not1(a, 4));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("a", 3);
  sim.set_input("b", 12);
  sim.set_input("sel", 0);
  EXPECT_EQ(sim.get_output("mux"), 3u);
  EXPECT_EQ(sim.get_output("inv"), 12u);  // ~3 masked to 4 bits
  sim.set_input("sel", 1);
  EXPECT_EQ(sim.get_output("mux"), 12u);
}

TEST(Simulator, AddWrapsSubWorks) {
  NetlistBuilder b("a");
  const NetId a = b.in_port("a", 8);
  const NetId c = b.in_port("b", 8);
  b.out_port("sum", b.add(a, c, 8));
  b.out_port("diff", b.sub(a, c, 8));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("a", 250);
  sim.set_input("b", 10);
  EXPECT_EQ(sim.get_output("sum"), 4u);  // wraps mod 256
  EXPECT_EQ(sim.get_output("diff"), 240u);
}

TEST(Simulator, SignedMaxAndRelu) {
  NetlistBuilder b("mr");
  const NetId a = b.in_port("a", 16);
  const NetId c = b.in_port("b", 16);
  b.out_port("max", b.smax(a, c, 16));
  b.out_port("relu", b.relu(a, 16));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("a", static_cast<std::uint16_t>(-5));
  sim.set_input("b", 3);
  EXPECT_EQ(sim.get_output("max"), 3u);
  EXPECT_EQ(sim.get_output("relu"), 0u);
  sim.set_input("a", 7);
  EXPECT_EQ(sim.get_output("max"), 7u);
  EXPECT_EQ(sim.get_output("relu"), 7u);
}

TEST(Simulator, DspMultiplyShiftSaturate) {
  NetlistBuilder b("d");
  const NetId a = b.in_port("a", 16);
  const NetId c = b.in_port("b", 16);
  const NetId acc = b.in_port("c", 16);
  b.out_port("p", b.dsp(a, c, acc, kFixedFrac, 0, 16));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  auto drive = [&](double x, double y, double z) {
    sim.set_input("a", static_cast<std::uint16_t>(Fixed16::from_double(x).raw));
    sim.set_input("b", static_cast<std::uint16_t>(Fixed16::from_double(y).raw));
    sim.set_input("c", static_cast<std::uint16_t>(Fixed16::from_double(z).raw));
    return Fixed16{static_cast<std::int16_t>(
        static_cast<std::uint16_t>(sim.get_output("p")))};
  };
  EXPECT_DOUBLE_EQ(drive(2.0, 3.0, 1.0).to_double(), 7.0);
  EXPECT_DOUBLE_EQ(drive(-2.0, 3.0, 0.0).to_double(), -6.0);
  EXPECT_EQ(drive(120.0, 120.0, 0.0).raw, INT16_MAX);  // saturation
}

TEST(Simulator, DspPipelineStagesDelayOutput) {
  NetlistBuilder b("dp");
  const NetId a = b.in_port("a", 16);
  b.out_port("p", b.dsp(a, b.constant(1 << kFixedFrac, 16), kInvalidNet, kFixedFrac, 2, 16));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("a", 55);
  EXPECT_EQ(sim.get_output("p"), 0u);  // not yet through the pipe
  sim.step();
  EXPECT_EQ(sim.get_output("p"), 0u);
  sim.step();
  EXPECT_EQ(sim.get_output("p"), 55u);
}

TEST(Simulator, FfRespectsClockEnable) {
  NetlistBuilder b("ff");
  const NetId d = b.in_port("d", 8);
  const NetId ce = b.in_port("ce", 1);
  b.out_port("q", b.ff(d, ce, 8));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("d", 42);
  sim.set_input("ce", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 0u);  // held
  sim.set_input("ce", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 42u);
  sim.set_input("d", 17);
  sim.set_input("ce", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 42u);  // still held
}

TEST(Simulator, SrlDelaysByDepth) {
  NetlistBuilder b("srl");
  const NetId d = b.in_port("d", 8);
  b.out_port("q", b.srl(d, kInvalidNet, 5, 8));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  for (int i = 1; i <= 12; ++i) {
    sim.set_input("d", static_cast<std::uint64_t>(i));
    sim.step();
    const std::uint64_t expected = i >= 5 ? static_cast<std::uint64_t>(i - 4) : 0u;
    EXPECT_EQ(sim.get_output("q"), expected) << "cycle " << i;
  }
}

TEST(Simulator, BramRomSyncRead) {
  NetlistBuilder b("rom");
  const NetId addr = b.in_port("addr", 8);
  const std::int32_t rom = b.rom({10, 20, 30, 40});
  b.out_port("q", b.bram(addr, kInvalidNet, kInvalidNet, 4, 16, rom));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("addr", 2);
  EXPECT_EQ(sim.get_output("q"), 0u);  // synchronous: not yet
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 30u);
  sim.set_input("addr", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 10u);
}

TEST(Simulator, BramDualPortReadWrite) {
  NetlistBuilder b("ram");
  const NetId waddr = b.in_port("waddr", 8);
  const NetId wdata = b.in_port("wdata", 16);
  const NetId we = b.in_port("we", 1);
  const NetId raddr = b.in_port("raddr", 8);
  b.out_port("q", b.bram(waddr, wdata, we, 8, 16, -1, "ram", raddr));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("waddr", 3);
  sim.set_input("wdata", 777);
  sim.set_input("we", 1);
  sim.set_input("raddr", 3);
  sim.step();  // write lands; read-first returns the old value this cycle
  EXPECT_EQ(sim.get_output("q"), 0u);
  sim.set_input("we", 0);
  sim.step();
  EXPECT_EQ(sim.get_output("q"), 777u);
}

TEST(Simulator, CounterWrapsAtModulus) {
  NetlistBuilder b("ctr");
  const NetId en = b.in_port("en", 1);
  const auto ctr = b.counter(5, en, 8);
  b.out_port("v", ctr.value);
  b.out_port("w", ctr.wrap);
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("en", 1);
  for (int cycle = 0; cycle < 12; ++cycle) {
    EXPECT_EQ(sim.get_output("v"), static_cast<std::uint64_t>(cycle % 5));
    EXPECT_EQ(sim.get_output("w"), cycle % 5 == 4 ? 1u : 0u);
    sim.step();
  }
}

TEST(Simulator, AccumAddsAndClears) {
  NetlistBuilder b("acc");
  const NetId step = b.in_port("step", 8);
  const NetId en = b.in_port("en", 1);
  const NetId clear = b.in_port("clr", 1);
  b.out_port("v", b.accum(step, en, clear, 8));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  sim.set_input("step", 3);
  sim.set_input("en", 1);
  sim.set_input("clr", 0);
  sim.run(4);
  EXPECT_EQ(sim.get_output("v"), 12u);
  sim.set_input("clr", 1);
  sim.step();
  EXPECT_EQ(sim.get_output("v"), 0u);
}

TEST(Simulator, MuxnSelectsAcrossTree) {
  NetlistBuilder b("muxn");
  const NetId sel = b.in_port("sel", 3);
  std::vector<NetId> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(b.constant(100 + i, 16));
  b.out_port("q", b.muxn(inputs, sel, 16));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  for (int i = 0; i < 5; ++i) {
    sim.set_input("sel", static_cast<std::uint64_t>(i));
    EXPECT_EQ(sim.get_output("q"), static_cast<std::uint64_t>(100 + i)) << i;
  }
}

class MulConstAdd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MulConstAdd, MatchesArithmetic) {
  const std::uint64_t k = GetParam();
  NetlistBuilder b("mca");
  const NetId x = b.in_port("x", 24);
  const NetId addend = b.in_port("a", 24);
  b.out_port("q", b.mul_const_add(x, k, addend, 24));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  for (std::uint64_t x_val : {0ULL, 1ULL, 7ULL, 100ULL, 4095ULL}) {
    sim.set_input("x", x_val);
    sim.set_input("a", 13);
    EXPECT_EQ(sim.get_output("q"), mask_width(x_val * k + 13, 24)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Constants, MulConstAdd,
                         ::testing::Values(0, 1, 2, 3, 5, 28, 64, 196, 784, 1024));

TEST(Simulator, MultiOutputCombCellDrivesEveryOutput) {
  // Regression: settle() used to write only outputs[0], so any further
  // output pin of a multi-output cell stayed stuck at 0 forever (the
  // simulator sibling of the STA multi-output bug). Semantics: every
  // connected output pin carries the cell's single evaluated value.
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
  nl.add_port({"q0", PortDir::kOutput, 8, q0});
  nl.add_port({"q1", PortDir::kOutput, 8, q1});
  ASSERT_TRUE(nl.validate().empty());

  Simulator sim(nl);
  sim.set_input("a", 0x5c);
  EXPECT_EQ(sim.get_output("q0"), 0x5cu);
  EXPECT_EQ(sim.get_output("q1"), 0x5cu);  // was stuck at 0
}

TEST(Simulator, MultiOutputSequentialCellDrivesEveryOutput) {
  // step() phase 2 had the same outputs[0]-only commit for FF/SRL/BRAM/DSP.
  Netlist nl("mos");
  const NetId d = nl.add_net(8, "d");
  nl.add_port({"d", PortDir::kInput, 8, d});
  const NetId q0 = nl.add_net(8, "q0");
  const NetId q1 = nl.add_net(8, "q1");
  Cell ff;
  ff.type = CellType::kFf;
  ff.width = 8;
  const CellId c = nl.add_cell(std::move(ff));
  nl.connect_input(c, 0, d);
  nl.connect_output(c, 0, q0);
  nl.connect_output(c, 1, q1);
  nl.add_port({"q0", PortDir::kOutput, 8, q0});
  nl.add_port({"q1", PortDir::kOutput, 8, q1});
  ASSERT_TRUE(nl.validate().empty());

  Simulator sim(nl);
  sim.set_input("d", 99);
  sim.step();
  EXPECT_EQ(sim.get_output("q0"), 99u);
  EXPECT_EQ(sim.get_output("q1"), 99u);  // was stuck at 0
}

TEST(Simulator, SetInputSettlesLazily) {
  // Regression: set_input() used to re-settle the whole combinational
  // fabric on every call, so driving a k-port interface cost O(k * cells)
  // per cycle. Settling is now deferred to the first observation.
  NetlistBuilder b("lazy");
  const NetId a = b.in_port("a", 16);
  const NetId c = b.in_port("b", 16);
  const NetId s = b.in_port("sel", 1);
  b.out_port("q", b.mux2(b.add(a, c, 16), b.sub(a, c, 16), s, 16));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  const std::size_t settles_before = sim.settles();
  for (int i = 0; i < 100; ++i) sim.set_input("a", static_cast<std::uint64_t>(i));
  sim.set_input("b", 7);
  sim.set_input("sel", 0);
  // 102 set_input calls, no observation yet: not a single settle.
  EXPECT_EQ(sim.settles(), settles_before);
  EXPECT_EQ(sim.get_output("q"), 106u);  // settled exactly once, on read
  EXPECT_EQ(sim.settles(), settles_before + 1);
  EXPECT_EQ(sim.get_output("q"), 106u);  // clean: no re-settle
  EXPECT_EQ(sim.settles(), settles_before + 1);
  sim.set_input("sel", 1);
  EXPECT_EQ(sim.get_output("q"), 92u);  // observable semantics unchanged
}

TEST(Simulator, LazySettleTraceMatchesStepByStepObservation) {
  // The lazy path must produce the identical trace whether outputs are
  // observed every cycle (forcing a settle each time, as the eager
  // simulator did) or only at the end.
  const auto build = [] {
    NetlistBuilder b("trace");
    const NetId d = b.in_port("d", 8);
    const NetId en = b.in_port("en", 1);
    b.out_port("acc", b.accum(d, en, b.zero(1), 8));
    b.out_port("dly", b.srl(d, kInvalidNet, 3, 8));
    return std::move(b).take();
  };
  const Netlist nl_a = build();
  const Netlist nl_b = build();
  Simulator observed(nl_a);
  Simulator lazy(nl_b);
  std::vector<std::uint64_t> trace;
  Rng rng(404);
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::uint64_t d = rng.next_below(256);
    const std::uint64_t en = rng.next_below(2);
    observed.set_input("d", d);
    observed.set_input("en", en);
    trace.push_back(observed.get_output("acc"));  // observe pre-edge
    observed.step();
    trace.push_back(observed.get_output("acc"));
    trace.push_back(observed.get_output("dly"));

    lazy.set_input("d", d);
    lazy.set_input("en", en);
    EXPECT_EQ(lazy.get_output("acc"), trace[trace.size() - 3]) << "cycle " << cycle;
    lazy.step();
  }
  // Final state identical even though `lazy` was only observed pre-edge.
  EXPECT_EQ(lazy.get_output("acc"), trace[trace.size() - 2]);
  EXPECT_EQ(lazy.get_output("dly"), trace.back());
}

TEST(Simulator, ClampSignedIsDefinedAtWideWidths) {
  // Regression: clamp_signed computed 1LL << 63 at width 64 (UB, caught by
  // UBSan) and its `lo` negation overflowed. Widths >= 64 saturate to the
  // full int64 range, i.e. pass through.
  using sim_detail::clamp_signed;
  EXPECT_EQ(clamp_signed(0, 64), 0);
  EXPECT_EQ(clamp_signed(INT64_MAX, 64), INT64_MAX);
  EXPECT_EQ(clamp_signed(INT64_MIN, 64), INT64_MIN);
  const std::int64_t hi63 = (1LL << 62) - 1;
  EXPECT_EQ(clamp_signed(INT64_MAX, 63), hi63);
  EXPECT_EQ(clamp_signed(INT64_MIN, 63), -hi63 - 1);
  EXPECT_EQ(clamp_signed(-5, 63), -5);
  EXPECT_EQ(clamp_signed(127, 8), 127);
  EXPECT_EQ(clamp_signed(128, 8), 127);
  EXPECT_EQ(clamp_signed(-129, 8), -128);
}

TEST(Simulator, DspAtWidth63And64IsDefined) {
  for (const std::uint16_t width : {std::uint16_t{63}, std::uint16_t{64}}) {
    NetlistBuilder b("dw");
    const NetId a = b.in_port("a", width);
    const NetId c = b.in_port("b", width);
    b.out_port("p", b.dsp(a, c, kInvalidNet, 0, 0, width));
    const Netlist nl = std::move(b).take();
    Simulator sim(nl);
    sim.set_input("a", 3);
    sim.set_input("b", 5);
    EXPECT_EQ(sim.get_output("p"), 15u) << "width " << width;
  }
}

TEST(Simulator, DetectsCombinationalLoop) {
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
  EXPECT_THROW(Simulator sim(nl), std::runtime_error);
}

TEST(Simulator, UnknownPortThrows) {
  NetlistBuilder b("p");
  b.out_port("q", b.constant(1, 1));
  const Netlist nl = std::move(b).take();
  Simulator sim(nl);
  EXPECT_THROW(sim.set_input("nope", 1), std::runtime_error);
  EXPECT_THROW(sim.get_output("nope"), std::runtime_error);
}

}  // namespace
}  // namespace fpgasim
