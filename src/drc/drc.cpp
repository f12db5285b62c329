#include "drc/drc.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "drc/rules.h"
#include "util/json.h"

namespace fpgasim {

const char* to_string(DrcSeverity severity) {
  switch (severity) {
    case DrcSeverity::kInfo: return "INFO";
    case DrcSeverity::kWarning: return "WARNING";
    case DrcSeverity::kError: return "ERROR";
  }
  return "?";
}

std::string DrcViolation::to_string() const {
  std::string s = std::string(fpgasim::to_string(severity)) + " [" + rule + "] " + message;
  if (waived) s += " (waived)";
  return s;
}

void DrcReport::add(DrcViolation violation) {
  if (violation.waived) {
    ++waived_;
  } else {
    switch (violation.severity) {
      case DrcSeverity::kInfo: ++infos_; break;
      case DrcSeverity::kWarning: ++warnings_; break;
      case DrcSeverity::kError: ++errors_; break;
    }
  }
  violations_.push_back(std::move(violation));
}

std::string DrcReport::summary() const {
  std::string s = "DRC: " + std::to_string(errors_) + " error" + (errors_ == 1 ? "" : "s") +
                  ", " + std::to_string(warnings_) + " warning" + (warnings_ == 1 ? "" : "s");
  if (infos_ > 0) s += ", " + std::to_string(infos_) + " info";
  if (waived_ > 0) s += ", " + std::to_string(waived_) + " waived";
  if (suppressed_ > 0) s += ", " + std::to_string(suppressed_) + " suppressed";
  s += " (" + std::to_string(rules_run_) + " rules)";
  return s;
}

std::string DrcReport::to_string() const {
  std::string s = summary();
  for (const DrcViolation& v : violations_) {
    s += "\n  " + v.to_string();
  }
  return s;
}

std::vector<const DrcViolation*> DrcReport::by_rule(const std::string& rule) const {
  std::vector<const DrcViolation*> out;
  for (const DrcViolation& v : violations_) {
    if (v.rule == rule) out.push_back(&v);
  }
  return out;
}

bool DrcReport::has(const std::string& rule) const {
  return std::any_of(violations_.begin(), violations_.end(),
                     [&](const DrcViolation& v) { return v.rule == rule; });
}

std::string DrcReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("design").value(design_);
  w.key("errors").value(errors_);
  w.key("warnings").value(warnings_);
  w.key("infos").value(infos_);
  w.key("waived").value(waived_);
  w.key("suppressed").value(suppressed_);
  w.key("rules_run").value(rules_run_);
  w.key("violations").begin_array();
  for (const DrcViolation& v : violations_) {
    w.begin_object();
    w.key("rule").value(v.rule);
    w.key("severity").value(fpgasim::to_string(v.severity));
    w.key("message").value(v.message);
    if (v.cell != kInvalidCell) w.key("cell").value(static_cast<std::size_t>(v.cell));
    if (v.net != kInvalidNet) w.key("net").value(static_cast<std::size_t>(v.net));
    if (v.waived) w.key("waived").value(true);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

namespace drc_detail {

void Emitter::begin_pass(const std::vector<DrcRuleInfo>& rules) {
  pass_rules_ = &rules;
  enter(rules.front());
}

void Emitter::rule(const char* id) {
  for (const DrcRuleInfo& info : *pass_rules_) {
    if (std::string_view(info.id) == id) return enter(info);
  }
  throw std::logic_error(std::string("drc: rule '") + id + "' is not in the running pass");
}

void Emitter::enter(const DrcRuleInfo& info) {
  rule_ = info.id;
  severity_ = info.severity;
  waived_ = std::find(opt_.waived_rules.begin(), opt_.waived_rules.end(), info.id) !=
            opt_.waived_rules.end();
  emitted_ = 0;
}

void Emitter::emit(DrcSeverity severity, std::string message, CellId cell, NetId net) {
  if (emitted_ == opt_.max_violations_per_rule) {
    ++report_.suppressed_;
    return;
  }
  ++emitted_;
  report_.add({rule_, severity, std::move(message), cell, net, waived_});
}

std::string net_ref(const Netlist& nl, NetId n) {
  std::string s = "net #" + std::to_string(n);
  if (!nl.net(n).name.empty()) s += " ('" + nl.net(n).name + "')";
  return s;
}

std::string cell_ref(const Netlist& nl, CellId c) {
  std::string s = std::string(to_string(nl.cell(c).type)) + " cell #" + std::to_string(c);
  if (!nl.cell(c).name.empty()) s += " ('" + nl.cell(c).name + "')";
  return s;
}

namespace {

const std::vector<DrcPass>& drc_passes() {
  static const std::vector<DrcPass> passes = [] {
    std::vector<DrcPass> p;
    register_structural_rules(p);
    register_dataflow_rules(p);
    register_placement_rules(p);
    register_routing_rules(p);
    register_checkpoint_rules(p);
    return p;
  }();
  return passes;
}

}  // namespace
}  // namespace drc_detail

const std::vector<DrcRuleInfo>& drc_rules() {
  static const std::vector<DrcRuleInfo> rules = [] {
    std::vector<DrcRuleInfo> r;
    for (const drc_detail::DrcPass& pass : drc_detail::drc_passes()) {
      r.insert(r.end(), pass.rules.begin(), pass.rules.end());
    }
    return r;
  }();
  return rules;
}

DrcReport run_drc(const DrcContext& ctx, unsigned stages, const DrcOptions& opt) {
  if (ctx.netlist == nullptr) {
    throw std::invalid_argument("run_drc: context has no netlist");
  }
  DrcReport report;
  report.design_ = ctx.netlist->name();
  drc_detail::Emitter out(report, opt);
  for (const drc_detail::DrcPass& pass : drc_detail::drc_passes()) {
    if ((pass.rules.front().stages & stages) == 0) continue;
    out.begin_pass(pass.rules);
    pass.check(ctx, out);
    report.rules_run_ += pass.rules.size();
  }
  return report;
}

DrcReport run_structural_drc(const Netlist& netlist, const DrcOptions& opt) {
  DrcContext ctx;
  ctx.netlist = &netlist;
  return run_drc(ctx, kDrcStructural, opt);
}

DrcReport run_checkpoint_drc(const Checkpoint& checkpoint, const Device* device,
                             const DrcOptions& opt) {
  DrcContext ctx;
  ctx.netlist = &checkpoint.netlist;
  ctx.phys = &checkpoint.phys;
  ctx.device = device;
  ctx.checkpoint = &checkpoint;
  // The whole checkpoint is one instance confined to its pblock: the
  // placement/routing containment rules then express relocation legality.
  DrcInstance inst;
  inst.name = checkpoint.netlist.name();
  inst.footprint = checkpoint.pblock;
  inst.cell_begin = 0;
  inst.cell_end = static_cast<CellId>(checkpoint.netlist.cell_count());
  inst.net_begin = 0;
  inst.net_end = static_cast<NetId>(checkpoint.netlist.net_count());
  ctx.instances.push_back(std::move(inst));
  return run_drc(ctx, kDrcAllStages, opt);
}

void enforce_drc(const DrcReport& report, const std::string& where) {
  if (report.clean()) return;
  throw std::runtime_error("DRC failed (" + where + "): " + report.to_string());
}

}  // namespace fpgasim
