// Placement legality rules: physical-state alignment, device bounds,
// pblock containment of relocated instances, instance overlap and
// resource over-subscription.
#include <algorithm>

#include "drc/drc.h"

namespace fpgasim {
namespace drc_detail {
namespace {

std::string loc_str(TileCoord loc) {
  return "(" + std::to_string(loc.x) + "," + std::to_string(loc.y) + ")";
}

class PlaceBoundsRule final : public DrcRule {
 public:
  const char* id() const override { return "place-bounds"; }
  const char* what() const override {
    return "physical state aligned with the netlist; placed cells in bounds; locked cells placed";
  }
  unsigned stages() const override { return kDrcPlacement; }
  DrcSeverity severity() const override { return DrcSeverity::kError; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    if (ctx.phys == nullptr) return;
    const Netlist& nl = *ctx.netlist;
    const PhysState& phys = *ctx.phys;
    if (phys.cell_loc.size() != nl.cell_count() || phys.routes.size() != nl.net_count()) {
      report.add({id(), severity(),
                  "physical state is misaligned with the netlist (" +
                      std::to_string(phys.cell_loc.size()) + " locations for " +
                      std::to_string(nl.cell_count()) + " cells, " +
                      std::to_string(phys.routes.size()) + " routes for " +
                      std::to_string(nl.net_count()) + " nets)",
                  kInvalidCell, kInvalidNet});
      return;  // index-based checks below would be unsafe
    }
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      const TileCoord loc = phys.cell_loc[c];
      if (loc == kUnplaced) {
        if (nl.cell(c).placement_locked) {
          report.add({id(), severity(),
                      "cell #" + std::to_string(c) + " ('" + nl.cell(c).name +
                          "') is placement-locked but unplaced",
                      c, kInvalidNet});
        }
        continue;
      }
      if (ctx.device != nullptr && !ctx.device->in_bounds(loc.x, loc.y)) {
        report.add({id(), severity(),
                    "cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') is placed at " +
                        loc_str(loc) + ", outside the device",
                    c, kInvalidNet});
      }
    }
  }
};

class PlaceEscapeRule final : public DrcRule {
 public:
  const char* id() const override { return "place-escape"; }
  const char* what() const override {
    return "cells of a relocated instance stay inside its pblock footprint";
  }
  unsigned stages() const override { return kDrcPlacement; }
  DrcSeverity severity() const override { return DrcSeverity::kError; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    if (ctx.phys == nullptr || ctx.instances.empty()) return;
    const PhysState& phys = *ctx.phys;
    for (const DrcInstance& inst : ctx.instances) {
      for (CellId c = inst.cell_begin; c < inst.cell_end && c < phys.cell_loc.size(); ++c) {
        const TileCoord loc = phys.cell_loc[c];
        if (loc == kUnplaced) continue;
        if (!inst.footprint.contains(loc.x, loc.y)) {
          report.add({id(), severity(),
                      "cell #" + std::to_string(c) + " of instance '" + inst.name +
                          "' is placed at " + loc_str(loc) + ", outside its pblock " +
                          inst.footprint.to_string(),
                      c, kInvalidNet});
        }
      }
    }
  }
};

class PlaceOverlapRule final : public DrcRule {
 public:
  const char* id() const override { return "place-overlap"; }
  const char* what() const override { return "locked instance pblocks do not overlap"; }
  unsigned stages() const override { return kDrcPlacement; }
  DrcSeverity severity() const override { return DrcSeverity::kError; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    for (std::size_t i = 0; i < ctx.instances.size(); ++i) {
      for (std::size_t j = i + 1; j < ctx.instances.size(); ++j) {
        if (ctx.instances[i].footprint.overlaps(ctx.instances[j].footprint)) {
          report.add({id(), severity(),
                      "instances '" + ctx.instances[i].name + "' " +
                          ctx.instances[i].footprint.to_string() + " and '" +
                          ctx.instances[j].name + "' " + ctx.instances[j].footprint.to_string() +
                          " overlap",
                      kInvalidCell, kInvalidNet});
        }
      }
    }
  }
};

class PlaceOveruseRule final : public DrcRule {
 public:
  const char* id() const override { return "place-overuse"; }
  const char* what() const override {
    return "aggregate cell footprints fit their pblock / device resources";
  }
  unsigned stages() const override { return kDrcPlacement; }
  DrcSeverity severity() const override { return DrcSeverity::kError; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    if (ctx.device == nullptr) return;
    const Netlist& nl = *ctx.netlist;
    const ResourceVec total = nl.stats().resources;
    if (!total.fits_in(ctx.device->total())) {
      report.add({id(), severity(),
                  "design needs " + total.to_string() + " but device '" + ctx.device->name() +
                      "' provides " + ctx.device->total().to_string(),
                  kInvalidCell, kInvalidNet});
    }
    for (const DrcInstance& inst : ctx.instances) {
      ResourceVec demand;
      for (CellId c = inst.cell_begin; c < inst.cell_end && c < nl.cell_count(); ++c) {
        demand += Netlist::cell_footprint(nl.cell(c));
      }
      const ResourceVec cap = pblock_resources(*ctx.device, inst.footprint);
      if (!demand.fits_in(cap)) {
        report.add({id(), severity(),
                    "instance '" + inst.name + "' needs " + demand.to_string() +
                        " but its pblock " + inst.footprint.to_string() + " provides " +
                        cap.to_string(),
                    kInvalidCell, kInvalidNet});
      }
    }
  }
};

class PlaceTileCrowdingRule final : public DrcRule {
 public:
  const char* id() const override { return "place-tile-crowding"; }
  const char* what() const override {
    return "per-tile demand is satisfiable within the legal spill radius";
  }
  unsigned stages() const override { return kDrcPlacement; }
  DrcSeverity severity() const override { return DrcSeverity::kWarning; }

  void check(const DrcContext& ctx, DrcReport& report) const override {
    if (ctx.phys == nullptr || ctx.device == nullptr) return;
    const Netlist& nl = *ctx.netlist;
    const PhysState& phys = *ctx.phys;
    if (phys.cell_loc.size() != nl.cell_count()) return;  // reported by place-bounds
    const Device& device = *ctx.device;
    // Replays the tile-assignment accounting: every cell takes capacity
    // from an expanding ring around its anchor tile (wide macro-cells
    // legally spread over adjacent tiles). A cell whose footprint cannot
    // be satisfied within tile_spill_radius indicates a crowded region.
    // The rings never leave the placed cells' bounding box grown by the
    // spill radius, so the capacity grid covers only that.
    const int radius = std::max(0, ctx.tile_spill_radius);
    Pblock area{device.width(), device.height(), -1, -1};
    for (const TileCoord loc : phys.cell_loc) {
      if (loc == kUnplaced || !device.in_bounds(loc.x, loc.y)) continue;
      area = Pblock{std::min(area.x0, loc.x), std::min(area.y0, loc.y), std::max(area.x1, loc.x),
                    std::max(area.y1, loc.y)};
    }
    if (area.x1 < 0) return;  // nothing placed
    area = Pblock{std::max(0, area.x0 - radius), std::max(0, area.y0 - radius),
                  std::min(device.width() - 1, area.x1 + radius),
                  std::min(device.height() - 1, area.y1 + radius)};
    std::vector<ResourceVec> remaining = tile_capacities(device, area);
    for (CellId c = 0; c < nl.cell_count(); ++c) {
      const TileCoord loc = phys.cell_loc[c];
      if (loc == kUnplaced || !device.in_bounds(loc.x, loc.y)) continue;
      ResourceVec left = Netlist::cell_footprint(nl.cell(c));
      if (left.is_zero()) continue;
      drain_rings(area, remaining, loc, ctx.tile_spill_radius, left);
      if (!left.is_zero()) {
        report.add({id(), severity(),
                    "cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') at " +
                        loc_str(loc) + " cannot satisfy " + left.to_string() + " within " +
                        std::to_string(ctx.tile_spill_radius) + " tiles of its anchor",
                    c, kInvalidNet});
      }
    }
  }
};

}  // namespace

void register_placement_rules(std::vector<const DrcRule*>& rules) {
  static const PlaceBoundsRule bounds;
  static const PlaceEscapeRule escape;
  static const PlaceOverlapRule overlap;
  static const PlaceOveruseRule overuse;
  static const PlaceTileCrowdingRule crowding;
  rules.push_back(&bounds);
  rules.push_back(&escape);
  rules.push_back(&overlap);
  rules.push_back(&overuse);
  rules.push_back(&crowding);
}

}  // namespace drc_detail
}  // namespace fpgasim
