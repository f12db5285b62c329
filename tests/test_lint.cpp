// The netlist-only design rules, as `fpga lint` runs them (structural +
// dataflow stages): comb-loop cycle paths, stitch-boundary widths, the 0/1/X
// dataflow rules with their waivers, caps and ordering, deterministic JSON,
// and the false-positive contract (generated designs produce no dataflow
// finding at either flow's final gate).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "cnn/model.h"
#include "drc/drc.h"
#include "fabric/device.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "netlist/netlist.h"
#include "synth/builder.h"

namespace fpgasim {
namespace {

std::size_t count_rule(const DrcReport& report, const std::string& rule) {
  return report.by_rule(rule).size();
}

/// The netlist-only stages, as `fpga lint` runs them.
DrcReport run_netlist_drc(const Netlist& nl, const DrcOptions& opt = {},
                          std::vector<DrcInstance> instances = {}) {
  DrcContext ctx;
  ctx.netlist = &nl;
  ctx.instances = std::move(instances);
  return run_drc(ctx, kDrcStructural | kDrcDataflow, opt);
}

// -- comb-loop ---------------------------------------------------------------

TEST(DrcCombLoop, NamesTheCyclePath) {
  // a = NOT(b); b = PASS(a): a 2-cell combinational cycle.
  Netlist nl("loop");
  const NetId a = nl.add_net(1, "a");
  const NetId b = nl.add_net(1, "b");
  Cell inv;
  inv.type = CellType::kLut;
  inv.op = LutOp::kNot;
  inv.name = "inv";
  const CellId inv_id = nl.add_cell(std::move(inv));
  nl.connect_input(inv_id, 0, b);
  nl.connect_output(inv_id, 0, a);
  Cell pass;
  pass.type = CellType::kLut;
  pass.op = LutOp::kPass;
  pass.name = "fwd";
  const CellId pass_id = nl.add_cell(std::move(pass));
  nl.connect_input(pass_id, 0, a);
  nl.connect_output(pass_id, 0, b);
  nl.add_port({"o", PortDir::kOutput, 1, b});

  const DrcReport report = run_netlist_drc(nl);
  EXPECT_FALSE(report.clean());
  const auto loops = report.by_rule("comb-loop");
  ASSERT_EQ(loops.size(), 1u) << report.to_string();
  EXPECT_EQ(loops[0]->severity, DrcSeverity::kError);
  // The path names both cells and returns to its anchor.
  EXPECT_NE(loops[0]->message.find("combinational loop of 2 cells"), std::string::npos)
      << loops[0]->message;
  EXPECT_NE(loops[0]->message.find("'inv'"), std::string::npos) << loops[0]->message;
  EXPECT_NE(loops[0]->message.find("'fwd'"), std::string::npos) << loops[0]->message;
  EXPECT_THROW(enforce_drc(report, "test"), std::runtime_error);
}

TEST(DrcCombLoop, CounterFeedbackIsNoFinding) {
  // The classic counter structure: FF -> add -> back to FF. Sequential
  // feedback is not a combinational loop, and nothing else trips either.
  NetlistBuilder b("counter");
  const NetId en = b.in_port("en", 1);
  const auto ctr = b.counter(5, en, 8, "ctr");
  b.out_port("value", ctr.value);
  const DrcReport report = run_netlist_drc(std::move(b).take());
  EXPECT_TRUE(report.violations().empty()) << report.to_string();
}

// -- net-width at stitch boundaries ------------------------------------------

TEST(DrcNetWidth, StitchBoundaryMismatchNamesBothInstances) {
  // An 8-bit producer register feeding a 16-bit consumer register. Inside
  // one component a narrower operand is legal (the fabric zero-extends),
  // so without instance ranges the netlist is clean — but across a stitch
  // boundary the stream buses must agree exactly, and the finding names
  // both instances.
  Netlist whole("stitched");
  const NetId in = whole.add_net(8, "in");
  const NetId mid = whole.add_net(8, "stitch");
  const NetId out = whole.add_net(16, "out");
  whole.add_port({"in", PortDir::kInput, 8, in});
  Cell producer;
  producer.type = CellType::kFf;
  producer.width = 8;
  producer.name = "prod_ff";
  const CellId prod = whole.add_cell(std::move(producer));
  whole.connect_input(prod, 0, in);
  whole.connect_output(prod, 0, mid);
  Cell consumer;
  consumer.type = CellType::kFf;
  consumer.width = 16;
  consumer.name = "cons_ff";
  const CellId cons = whole.add_cell(std::move(consumer));
  whole.connect_input(cons, 0, mid);
  whole.connect_output(cons, 0, out);
  whole.add_port({"out", PortDir::kOutput, 16, out});

  const DrcReport alone = run_netlist_drc(whole);
  EXPECT_TRUE(alone.violations().empty()) << alone.to_string();

  const DrcReport report =
      run_netlist_drc(whole, {},
                      {DrcInstance{"producer", Pblock{}, prod, prod + 1, in, out},
                       DrcInstance{"consumer", Pblock{}, cons, cons + 1, out, out + 1}});
  const auto findings = report.by_rule("net-width");
  ASSERT_EQ(findings.size(), 1u) << report.to_string();
  EXPECT_FALSE(report.clean());
  EXPECT_NE(findings[0]->message.find("stitch boundary 'producer' -> 'consumer'"),
            std::string::npos)
      << findings[0]->message;
}

// -- dataflow: dead-cell, unread-net ------------------------------------------

TEST(DrcDataflow, DeadConeFlagged) {
  // Live path: x -> FF -> out. Dead cone: AND(x, x) -> FF (read by nothing).
  NetlistBuilder b("dead");
  const NetId x = b.in_port("x", 1);
  b.out_port("out", b.ff(x, kInvalidNet, 1));
  const NetId cone = b.and2(x, x);
  b.ff(cone, kInvalidNet, 1);  // dead: output net has no readers
  Netlist nl = b.netlist();    // bypass take(): keep the dead logic

  const DrcReport report = run_netlist_drc(nl);
  EXPECT_TRUE(report.has("unread-net")) << report.to_string();
  // Both cells of the cone are dead; every finding is warning-severity,
  // so the report is clean for gating purposes but not empty.
  EXPECT_EQ(count_rule(report, "dead-cell"), 2u) << report.to_string();
  EXPECT_TRUE(report.clean());

  // prune_dead() removes exactly the cone and the checker goes quiet.
  EXPECT_EQ(nl.prune_dead(), 2u);
  const DrcReport pruned = run_netlist_drc(nl);
  EXPECT_TRUE(pruned.violations().empty()) << pruned.to_string();
}

// -- dataflow: stuck-net, const-lut, x-escape ---------------------------------

TEST(DrcDataflow, StuckAtLutFoldable) {
  // AND with a constant-zero operand masks the live input x.
  NetlistBuilder b("stuck");
  const NetId x = b.in_port("x", 8);
  b.out_port("out", b.op2(LutOp::kAnd, x, b.zero(8), 8));
  const DrcReport report = run_netlist_drc(b.netlist());
  const auto findings = report.by_rule("const-lut");
  ASSERT_EQ(findings.size(), 1u) << report.to_string();
  EXPECT_EQ(findings[0]->severity, DrcSeverity::kWarning);
  EXPECT_NE(findings[0]->message.find("always evaluates to 0"), std::string::npos)
      << findings[0]->message;
}

TEST(DrcDataflow, StuckNetThroughRegister) {
  // A MUX whose select is stuck picks the constant arm; the FF behind it
  // joins Const(7) with its reset Const(0) and is not constant, so the mux
  // is the one foldable LUT.
  NetlistBuilder b("stuckreg");
  const NetId x = b.in_port("x", 8);
  const NetId picked = b.mux2(b.constant(7, 8), x, b.zero(1), 8);  // sel=0 -> 7
  b.out_port("out", b.ff(picked, kInvalidNet, 8));
  const DrcReport report = run_netlist_drc(b.netlist());
  EXPECT_EQ(count_rule(report, "const-lut"), 1u) << report.to_string();
  EXPECT_FALSE(report.has("stuck-net")) << report.to_string();
}

TEST(DrcDataflow, StuckNetBehindMaskingRegister) {
  // An FF whose clock enable is stuck low never leaves reset although its
  // data input is live: a stuck net with a non-LUT driver.
  NetlistBuilder b("stuckff");
  const NetId x = b.in_port("x", 8);
  b.out_port("out", b.ff(x, b.zero(1), 8));
  const DrcReport report = run_netlist_drc(b.netlist());
  const auto findings = report.by_rule("stuck-net");
  ASSERT_EQ(findings.size(), 1u) << report.to_string();
  EXPECT_NE(findings[0]->message.find("stuck at constant 0"), std::string::npos)
      << findings[0]->message;
}

TEST(DrcDataflow, XEscapesThroughRegisterToOutput) {
  // BRAM with neither ROM contents nor a write port: reads return power-up
  // garbage. The register's reset value does not dominate (X wins the
  // join), so the X escapes to the output port.
  NetlistBuilder b("xescape");
  const NetId addr = b.in_port("addr", 4);
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, -1, "uninit");
  b.out_port("out", b.ff(data, kInvalidNet, 8));
  const DrcReport report = run_netlist_drc(b.netlist());
  const auto findings = report.by_rule("x-escape");
  ASSERT_EQ(findings.size(), 1u) << report.to_string();
  EXPECT_EQ(findings[0]->severity, DrcSeverity::kError);
  EXPECT_NE(findings[0]->message.find("uninitialized"), std::string::npos);
  EXPECT_NE(findings[0]->message.find("'uninit'"), std::string::npos) << findings[0]->message;
  EXPECT_FALSE(report.clean());
}

TEST(DrcDataflow, UnconnectedOperandEscapesAsX) {
  // An adder with only one operand connected: net-dangling reports the pin,
  // and the missing operand makes the output X at the port.
  Netlist nl("floating");
  const NetId a = nl.add_net(8, "a");
  const NetId out = nl.add_net(8, "out");
  nl.add_port({"a", PortDir::kInput, 8, a});
  Cell add;
  add.type = CellType::kAdd;
  add.width = 8;
  add.name = "sum";
  const CellId add_id = nl.add_cell(std::move(add));
  nl.connect_input(add_id, 0, a);
  nl.connect_output(add_id, 0, out);
  nl.add_port({"out", PortDir::kOutput, 8, out});
  const DrcReport report = run_netlist_drc(nl);
  EXPECT_TRUE(report.has("net-dangling")) << report.to_string();
  EXPECT_TRUE(report.has("x-escape")) << report.to_string();
}

TEST(DrcDataflow, RomBramDoesNotLeakX) {
  NetlistBuilder b("rom");
  const NetId addr = b.in_port("addr", 4);
  const std::int32_t rom = b.rom({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const NetId data = b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, rom, "coeffs");
  b.out_port("out", b.ff(data, kInvalidNet, 8));
  const DrcReport report = run_netlist_drc(b.netlist());
  EXPECT_TRUE(report.violations().empty()) << report.to_string();
}

TEST(DrcDataflow, WaiversKeepFindingsButNotCounts) {
  NetlistBuilder b("waived");
  const NetId addr = b.in_port("addr", 4);
  b.out_port("out", b.bram(addr, kInvalidNet, kInvalidNet, 16, 8, -1, "uninit"));
  DrcOptions opt;
  opt.waived_rules = {"x-escape"};
  const DrcReport report = run_netlist_drc(b.netlist(), opt);
  ASSERT_TRUE(report.has("x-escape")) << report.to_string();
  EXPECT_TRUE(report.by_rule("x-escape")[0]->waived);
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.waived(), 1u);
  EXPECT_NO_THROW(enforce_drc(report, "test"));
}

TEST(DrcDataflow, PerRuleFindingCap) {
  NetlistBuilder b("capped");
  const NetId x = b.in_port("x", 1);
  b.out_port("out", b.ff(x, kInvalidNet, 1));
  for (int i = 0; i < 8; ++i) b.and2(x, x);  // eight dead cells
  DrcOptions opt;
  opt.max_violations_per_rule = 3;
  const DrcReport report = run_netlist_drc(b.netlist(), opt);
  EXPECT_EQ(count_rule(report, "dead-cell"), 3u);
  // Five dead cells and five unread nets over the cap of three each.
  EXPECT_EQ(report.suppressed(), 10u) << report.to_string();
}

TEST(DrcDataflow, FindingOrderFollowsTheRegistry) {
  // A netlist tripping several rules reports them grouped in drc_rules()
  // order.
  NetlistBuilder b("ordered");
  const NetId x = b.in_port("x", 8);
  b.and2(x, x);  // dead cell, unread net
  b.out_port("out", b.op2(LutOp::kAnd, x, b.zero(8), 8));  // const lut
  const DrcReport report = run_netlist_drc(b.netlist());
  ASSERT_GE(report.violations().size(), 3u) << report.to_string();
  std::vector<std::size_t> ranks;
  for (const DrcViolation& v : report.violations()) {
    const auto& table = drc_rules();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (v.rule == table[i].id) ranks.push_back(i);
    }
  }
  ASSERT_EQ(ranks.size(), report.violations().size());
  EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end()));
}

// -- the false-positive contract at the final gate -----------------------------

struct CleanFlow {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  // Every component passes the full checkpoint DRC as it is built.
  CheckpointStore store{StoreOptions{}};
  CompileService service{device, store};

  explicit CleanFlow(CnnModel m, long dsp_budget, int max_tile = 32) : model(std::move(m)) {
    impl = choose_implementation(model, dsp_budget, max_tile);
    groups = default_grouping(model);
  }

  CompileService::SessionResult compile() { return service.compile(model, impl, groups); }
};

/// The final gate ran the dataflow rules, no rule reported an error, and no
/// dataflow rule reported anything at all. (Structural net-dead warnings on
/// the nets alias_net() orphans when stitching are expected.)
void expect_no_dataflow_finding(const DrcReport& report) {
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_EQ(report.rules_run(), drc_rules().size() - 2);  // all but the checkpoint rules
  for (const DrcRuleInfo& rule : drc_rules()) {
    if ((rule.stages & kDrcDataflow) != 0) {
      EXPECT_FALSE(report.has(rule.id)) << report.to_string();
    }
  }
}

TEST(DrcFinalGate, LeNetPreImplAndMonolithicHaveNoDataflowFinding) {
  CleanFlow f(make_lenet5(), 64);
  expect_no_dataflow_finding(f.compile().report.drc);

  Netlist flat = build_flat_netlist(f.model, f.impl, f.groups);
  PhysState phys;
  expect_no_dataflow_finding(run_monolithic_flow(f.device, flat, phys).drc);
}

TEST(DrcFinalGate, ResblockPreImplHasNoDataflowFinding) {
  CleanFlow f(make_resblock_net(), 64);
  expect_no_dataflow_finding(f.compile().report.drc);
}

TEST(DrcFinalGate, Vgg16PreImplHasNoDataflowFinding) {
  // The VGG example's quick configuration (small tiles, streamed weights).
  CleanFlow f(make_vgg16(), 384, 14);
  expect_no_dataflow_finding(f.compile().report.drc);
}

TEST(DrcReportTest, JsonIsDeterministicAndCarriesNoTiming) {
  CleanFlow f(parse_arch_def(R"(network mini
input 2 8 8
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=2 k=3
)"),
              12);
  const auto first = f.compile();
  const auto second = f.compile();
  const std::string json_a = first.report.drc.to_json();
  EXPECT_EQ(json_a, second.report.drc.to_json());
  EXPECT_EQ(run_netlist_drc(first.design.netlist).to_json(),
            run_netlist_drc(second.design.netlist).to_json());
  EXPECT_NE(json_a.find("\"design\": \"preimpl_top\""), std::string::npos) << json_a;
  EXPECT_EQ(json_a.find("seconds"), std::string::npos) << "timing must stay out of JSON";
}

}  // namespace
}  // namespace fpgasim
