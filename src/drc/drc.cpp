#include "drc/drc.h"

#include <algorithm>
#include <stdexcept>

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

const std::vector<const DrcRule*>& drc_rules() {
  static const std::vector<const DrcRule*> rules = [] {
    std::vector<const DrcRule*> r;
    drc_detail::register_structural_rules(r);
    drc_detail::register_placement_rules(r);
    drc_detail::register_routing_rules(r);
    drc_detail::register_checkpoint_rules(r);
    return r;
  }();
  return rules;
}

DrcReport run_drc(const DrcContext& ctx, unsigned stages, const DrcOptions& opt) {
  if (ctx.netlist == nullptr) {
    throw std::invalid_argument("run_drc: context has no netlist");
  }
  DrcReport report;
  for (const DrcRule* rule : drc_rules()) {
    if ((rule->stages() & stages) == 0) continue;
    const bool waived = std::find(opt.waived_rules.begin(), opt.waived_rules.end(),
                                  rule->id()) != opt.waived_rules.end();
    DrcReport local;
    rule->check(ctx, local);
    ++report.rules_run_;
    std::size_t kept = 0;
    for (DrcViolation& v : local.violations_) {
      if (kept == opt.max_violations_per_rule) {
        report.suppressed_ += local.violations_.size() - kept;
        break;
      }
      ++kept;
      v.waived = waived;
      report.add(std::move(v));
    }
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
