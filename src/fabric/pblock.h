// Rectangular physical regions (Vivado "pblocks"). A pre-implemented
// component is placed and routed entirely inside its pblock; relocation
// moves the whole pblock to a column-compatible anchor elsewhere on the
// device.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fabric/device.h"
#include "fabric/resources.h"

namespace fpgasim {

struct Pblock {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;  // inclusive
  int y1 = 0;  // inclusive

  int width() const { return x1 - x0 + 1; }
  int height() const { return y1 - y0 + 1; }
  std::int64_t area() const { return static_cast<std::int64_t>(width()) * height(); }
  bool contains(int x, int y) const { return x >= x0 && x <= x1 && y >= y0 && y <= y1; }
  bool overlaps(const Pblock& o) const {
    return x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1;
  }
  Pblock translated(int dx, int dy) const { return Pblock{x0 + dx, y0 + dy, x1 + dx, y1 + dy}; }
  friend bool operator==(const Pblock&, const Pblock&) = default;

  std::string to_string() const;
};

/// Capacity of every tile of `area` (inside the device), row-major from
/// its (x0, y0) corner: the grid drain_rings takes capacity from.
std::vector<ResourceVec> tile_capacities(const Device& device, const Pblock& area);

/// Takes `left` out of `remaining` (a tile_capacities grid of `area`)
/// around `center`, in square rings of radius 0, 1, ..., max_radius clipped
/// to `area`: the spill of a wide macro-cell over adjacent tiles. A ring is
/// walked column by column from its west edge: its edge columns bottom to
/// top, each interior column's bottom tile then its top tile. Stops as soon
/// as `left` is zero, or once a ring covers all of `area` (a tile gives a
/// cell nothing on a second visit). Returns the first tile that
/// contributed, or (-1, -1) when none did.
TileCoord drain_rings(const Pblock& area, std::vector<ResourceVec>& remaining, TileCoord center,
                      int max_radius, ResourceVec& left);

/// Sum of tile capacities inside the rectangle.
ResourceVec pblock_resources(const Device& device, const Pblock& pblock);

/// Finds the smallest (by area) pblock anchored anywhere on the device that
/// provides at least `need` resources, preferring shapes whose aspect ratio
/// is close to `aspect_pref` (width/height) and that span no fabric
/// discontinuity. `max_width` (0 = unbounded) caps the pblock width in
/// columns: narrow pblocks leave more disjoint relocation bands on the die,
/// which is what makes dense compositions packable. Grows column-aligned
/// windows; returns nullopt only when the device cannot satisfy `need`.
std::optional<Pblock> find_min_pblock(const Device& device, const ResourceVec& need,
                                      double aspect_pref = 1.0, int max_width = 0);

/// All anchor translations (dx, dy) where the pblock lands in-bounds on a
/// column-compatible window with matching row parity (sites line up), i.e.
/// every legal relocation of a component implemented in `pblock`.
std::vector<std::pair<int, int>> relocation_offsets(const Device& device, const Pblock& pblock);

}  // namespace fpgasim
