// Placement legality rules: physical-state alignment, device bounds,
// pblock containment of relocated instances, instance overlap and
// resource over-subscription.
#include <algorithm>

#include "drc/rules.h"

namespace fpgasim {
namespace drc_detail {
namespace {

std::string loc_str(TileCoord loc) {
  return "(" + std::to_string(loc.x) + "," + std::to_string(loc.y) + ")";
}

void check_bounds(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const PhysState& phys = *ctx.phys;
  if (phys.cell_loc.size() != nl.cell_count() || phys.routes.size() != nl.net_count()) {
    out.emit("physical state is misaligned with the netlist (" +
             std::to_string(phys.cell_loc.size()) + " locations for " +
             std::to_string(nl.cell_count()) + " cells, " +
             std::to_string(phys.routes.size()) + " routes for " +
             std::to_string(nl.net_count()) + " nets)");
    return;  // index-based checks below would be unsafe
  }
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const TileCoord loc = phys.cell_loc[c];
    if (loc == kUnplaced) {
      if (nl.cell(c).placement_locked) {
        out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name +
                 "') is placement-locked but unplaced",
                 c, kInvalidNet);
      }
      continue;
    }
    if (ctx.device != nullptr && !ctx.device->in_bounds(loc.x, loc.y)) {
      out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') is placed at " +
               loc_str(loc) + ", outside the device",
               c, kInvalidNet);
    }
  }
}

void check_escape(const DrcContext& ctx, Emitter& out) {
  if (ctx.phys == nullptr || ctx.instances.empty()) return;
  const PhysState& phys = *ctx.phys;
  for (const DrcInstance& inst : ctx.instances) {
    for (CellId c = inst.cell_begin; c < inst.cell_end && c < phys.cell_loc.size(); ++c) {
      const TileCoord loc = phys.cell_loc[c];
      if (loc == kUnplaced) continue;
      if (!inst.footprint.contains(loc.x, loc.y)) {
        out.emit("cell #" + std::to_string(c) + " of instance '" + inst.name +
                 "' is placed at " + loc_str(loc) + ", outside its pblock " +
                 inst.footprint.to_string(),
                 c, kInvalidNet);
      }
    }
  }
}

void check_overlap(const DrcContext& ctx, Emitter& out) {
  for (std::size_t i = 0; i < ctx.instances.size(); ++i) {
    for (std::size_t j = i + 1; j < ctx.instances.size(); ++j) {
      if (ctx.instances[i].footprint.overlaps(ctx.instances[j].footprint)) {
        out.emit("instances '" + ctx.instances[i].name + "' " +
                 ctx.instances[i].footprint.to_string() + " and '" +
                 ctx.instances[j].name + "' " + ctx.instances[j].footprint.to_string() +
                 " overlap");
      }
    }
  }
}

void check_overuse(const DrcContext& ctx, Emitter& out) {
  if (ctx.device == nullptr) return;
  const Netlist& nl = *ctx.netlist;
  const ResourceVec total = nl.stats().resources;
  if (!total.fits_in(ctx.device->total())) {
    out.emit("design needs " + total.to_string() + " but device '" + ctx.device->name() +
             "' provides " + ctx.device->total().to_string());
  }
  for (const DrcInstance& inst : ctx.instances) {
    ResourceVec demand;
    for (CellId c = inst.cell_begin; c < inst.cell_end && c < nl.cell_count(); ++c) {
      demand += Netlist::cell_footprint(nl.cell(c));
    }
    const ResourceVec cap = pblock_resources(*ctx.device, inst.footprint);
    if (!demand.fits_in(cap)) {
      out.emit("instance '" + inst.name + "' needs " + demand.to_string() +
               " but its pblock " + inst.footprint.to_string() + " provides " +
               cap.to_string());
    }
  }
}

void check_tile_crowding(const DrcContext& ctx, Emitter& out) {
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
      out.emit("cell #" + std::to_string(c) + " ('" + nl.cell(c).name + "') at " +
               loc_str(loc) + " cannot satisfy " + left.to_string() + " within " +
               std::to_string(ctx.tile_spill_radius) + " tiles of its anchor",
               c, kInvalidNet);
    }
  }
}

}  // namespace

void register_placement_rules(std::vector<DrcPass>& passes) {
  passes.push_back({check_bounds,
                    {{"place-bounds",
                      "physical state aligned with the netlist; placed cells in bounds; "
                      "locked cells placed",
                      kDrcPlacement, DrcSeverity::kError}}});
  passes.push_back({check_escape,
                    {{"place-escape",
                      "cells of a relocated instance stay inside its pblock footprint",
                      kDrcPlacement, DrcSeverity::kError}}});
  passes.push_back({check_overlap,
                    {{"place-overlap", "locked instance pblocks do not overlap",
                      kDrcPlacement, DrcSeverity::kError}}});
  passes.push_back({check_overuse,
                    {{"place-overuse",
                      "aggregate cell footprints fit their pblock / device resources",
                      kDrcPlacement, DrcSeverity::kError}}});
  passes.push_back({check_tile_crowding,
                    {{"place-tile-crowding",
                      "per-tile demand is satisfiable within the legal spill radius",
                      kDrcPlacement, DrcSeverity::kWarning}}});
}

}  // namespace drc_detail
}  // namespace fpgasim
