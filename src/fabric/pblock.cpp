#include "fabric/pblock.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fpgasim {

std::string Pblock::to_string() const {
  return "pblock[x" + std::to_string(x0) + ":" + std::to_string(x1) + " y" + std::to_string(y0) +
         ":" + std::to_string(y1) + "]";
}

ResourceVec pblock_resources(const Device& device, const Pblock& pblock) {
  const int y0 = std::max(0, pblock.y0);
  const int h = std::min(device.height() - 1, pblock.y1) - y0 + 1;
  ResourceVec total;
  if (h <= 0) return total;
  for (int x = std::max(0, pblock.x0); x <= std::min(device.width() - 1, pblock.x1); ++x) {
    total += device.column_capacity(x, y0, h);
  }
  return total;
}

std::vector<ResourceVec> tile_capacities(const Device& device, const Pblock& area) {
  std::vector<ResourceVec> caps(static_cast<std::size_t>(std::max(0, area.width())) *
                                static_cast<std::size_t>(std::max(0, area.height())));
  for (int y = area.y0; y <= area.y1; ++y) {
    for (int x = area.x0; x <= area.x1; ++x) {
      caps[static_cast<std::size_t>(y - area.y0) * area.width() + (x - area.x0)] =
          device.tile_capacity(x, y);
    }
  }
  return caps;
}

TileCoord drain_rings(const Pblock& area, std::vector<ResourceVec>& remaining, TileCoord center,
                      int max_radius, ResourceVec& left) {
  TileCoord first{-1, -1};
  auto take_from = [&](int x, int y) {
    ResourceVec& cap =
        remaining[static_cast<std::size_t>(y - area.y0) * area.width() + (x - area.x0)];
    const ResourceVec take{std::min(left.lut, cap.lut), std::min(left.ff, cap.ff),
                           std::min(left.carry, cap.carry), std::min(left.dsp, cap.dsp),
                           std::min(left.bram, cap.bram)};
    if (take.is_zero()) return;
    cap -= take;
    left -= take;
    if (first.x < 0) first = TileCoord{x, y};
  };
  for (int r = 0; r <= max_radius && !left.is_zero(); ++r) {
    const int x_lo = std::max(area.x0, center.x - r), x_hi = std::min(area.x1, center.x + r);
    const int y_lo = std::max(area.y0, center.y - r), y_hi = std::min(area.y1, center.y + r);
    for (int x = x_lo; x <= x_hi && !left.is_zero(); ++x) {
      if (x == x_lo || x == x_hi) {
        for (int y = y_lo; y <= y_hi && !left.is_zero(); ++y) take_from(x, y);
      } else if (y_lo <= y_hi) {
        take_from(x, y_lo);
        if (y_hi != y_lo && !left.is_zero()) take_from(x, y_hi);
      }
    }
    if (center.x - r <= area.x0 && center.x + r >= area.x1 && center.y - r <= area.y0 &&
        center.y + r >= area.y1) {
      break;
    }
  }
  return first;
}

std::optional<Pblock> find_min_pblock(const Device& device, const ResourceVec& need,
                                      double aspect_pref, int max_width) {
  std::optional<Pblock> best;
  double best_score = std::numeric_limits<double>::infinity();

  // Candidate heights: even (site-parity-preserving) sizes, coarser as they
  // grow; capped at the device height.
  std::vector<int> heights;
  for (int h : {2, 4, 6, 8, 10, 12, 16, 20, 24, 30, 40, 48, 60, 80, 120, 160, 240}) {
    if (h <= device.height()) heights.push_back(h);
  }
  const int y_step = std::max(2, device.clock_region_height() / 4);

  for (int h : heights) {
    if (best && h > 2 * best->height()) break;  // taller shapes cannot win
    for (int y0 = 0; y0 + h <= device.height(); y0 += y_step) {
      ResourceVec have;
      int x1 = -1;  // rightmost column currently in the window (inclusive)
      for (int x0 = 0; x0 < device.width(); ++x0) {
        if (x1 < x0 - 1) {
          x1 = x0 - 1;
          have = ResourceVec{};
        }
        // Grow right edge until the requirement fits (sliding window).
        while (!need.fits_in(have) && x1 + 1 < device.width() &&
               (max_width <= 0 || x1 - x0 + 1 < max_width)) {
          ++x1;
          have += device.column_capacity(x1, y0, h);
        }
        if (!need.fits_in(have)) {
          if (max_width <= 0) break;  // no window starting >= x0 can fit
          have -= device.column_capacity(x0, y0, h);
          continue;  // width-capped: slide the whole window right
        }
        const Pblock cand{x0, y0, x1, y0 + h - 1};
        const double aspect = static_cast<double>(cand.width()) / cand.height();
        const double aspect_penalty = std::abs(std::log(aspect / aspect_pref)) * 0.15;
        const double disc_penalty =
            device.discontinuities_between(x0, x1 + 1) > 0 ? 0.5 : 0.0;
        const double score =
            static_cast<double>(cand.area()) * (1.0 + aspect_penalty + disc_penalty);
        if (score < best_score) {
          best_score = score;
          best = cand;
        }
        // Slide: drop column x0 before advancing the left edge.
        have -= device.column_capacity(x0, y0, h);
      }
    }
  }
  return best;
}

std::vector<std::pair<int, int>> relocation_offsets(const Device& device, const Pblock& pblock) {
  std::vector<std::pair<int, int>> anchors;
  const std::vector<int> dxs = device.compatible_column_offsets(pblock.x0, pblock.width());
  for (int dx : dxs) {
    const int dy_min = -pblock.y0;
    const int dy_start = dy_min + ((dy_min % 2 + 2) % 2);  // round up to even
    for (int dy = dy_start; pblock.y1 + dy < device.height(); dy += 2) {
      anchors.emplace_back(dx, dy);
    }
  }
  return anchors;
}

}  // namespace fpgasim
