// Internals shared by the DRC rule implementations (src/drc/rules_*.cpp):
// the rule-scoped finding sink and the pass registry entries.
#pragma once

#include <string>
#include <vector>

#include "drc/drc.h"

namespace fpgasim {
namespace drc_detail {

/// A rule-scoped sink that applies severities, waivers and per-rule caps.
class Emitter {
 public:
  Emitter(DrcReport& report, const DrcOptions& opt) : report_(report), opt_(opt) {}

  /// Starts a pass that reports under `rules`, entering the first.
  void begin_pass(const std::vector<DrcRuleInfo>& rules);
  /// Enters another rule of the running pass: later emit() calls carry its
  /// id and severity.
  void rule(const char* id);
  void emit(std::string message, CellId cell = kInvalidCell, NetId net = kInvalidNet) {
    emit(severity_, std::move(message), cell, net);
  }
  /// emit() at a severity other than the rule's default.
  void emit(DrcSeverity severity, std::string message, CellId cell = kInvalidCell,
            NetId net = kInvalidNet);

 private:
  void enter(const DrcRuleInfo& info);

  DrcReport& report_;
  const DrcOptions& opt_;
  const std::vector<DrcRuleInfo>* pass_rules_ = nullptr;
  const char* rule_ = nullptr;
  DrcSeverity severity_ = DrcSeverity::kError;
  bool waived_ = false;
  std::size_t emitted_ = 0;
};

/// One check pass and the rules it reports under, in emission order; the
/// first is entered before check() runs. A pass runs when its first
/// rule's stages intersect the requested ones.
struct DrcPass {
  void (*check)(const DrcContext& ctx, Emitter& out);
  std::vector<DrcRuleInfo> rules;
};

std::string cell_ref(const Netlist& nl, CellId c);
std::string net_ref(const Netlist& nl, NetId n);

void register_structural_rules(std::vector<DrcPass>& passes);
void register_dataflow_rules(std::vector<DrcPass>& passes);
void register_placement_rules(std::vector<DrcPass>& passes);
void register_routing_rules(std::vector<DrcPass>& passes);
void register_checkpoint_rules(std::vector<DrcPass>& passes);

}  // namespace drc_detail
}  // namespace fpgasim
