#include <gtest/gtest.h>

#include <string>

#include "fabric/device.h"
#include "fabric/pblock.h"
#include "util/hash.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

TEST(Device, Xcku5pCalibration) {
  const Device device = make_xcku5p_sim();
  // ~KU5P-class totals from the periodic 10-column fabric unit.
  EXPECT_EQ(device.total().lut, 171 * 240 * 8);
  EXPECT_EQ(device.total().ff, 171 * 240 * 16);
  EXPECT_EQ(device.total().dsp, 22 * 120);
  EXPECT_EQ(device.total().bram, 21 * 120);
  EXPECT_EQ(device.width(), 216);
  EXPECT_EQ(device.height(), 240);
  EXPECT_EQ(device.clock_region_rows(), 4);
}

TEST(Device, ColumnCounts) {
  const Device device = make_xcku5p_sim();
  int clb = 0, dsp = 0, bram = 0, io = 0;
  for (int x = 0; x < device.width(); ++x) {
    switch (device.column_type(x)) {
      case ColumnType::kClb: ++clb; break;
      case ColumnType::kDsp: ++dsp; break;
      case ColumnType::kBram: ++bram; break;
      case ColumnType::kIo: ++io; break;
    }
  }
  EXPECT_EQ(clb, 171);
  EXPECT_EQ(dsp, 22);
  EXPECT_EQ(bram, 21);
  EXPECT_EQ(io, 2);
}

TEST(Device, ColumnPatternIsPeriodic) {
  // Relocation depends on signatures repeating every fabric unit.
  const Device device = make_xcku5p_sim();
  int matching_units = 0;
  for (int unit = 1; unit < 21; ++unit) {
    bool same = true;
    for (int i = 0; i < 10; ++i) {
      same &= device.column_type(unit * 10 + i) == device.column_type(i);
    }
    matching_units += same;
  }
  EXPECT_GE(matching_units, 18);  // all but the two IO-bearing units
}

TEST(Device, TileCapacityByColumnType) {
  const Device device = make_tiny_device();
  for (int x = 0; x < device.width(); ++x) {
    for (int y = 0; y < device.height(); ++y) {
      const ResourceVec cap = device.tile_capacity(x, y);
      switch (device.column_type(x)) {
        case ColumnType::kClb:
          EXPECT_EQ(cap.lut, 8);
          EXPECT_EQ(cap.ff, 16);
          EXPECT_EQ(cap.carry, 1);
          break;
        case ColumnType::kDsp:
          EXPECT_EQ(cap.dsp, y % 2 == 0 ? 1 : 0);
          EXPECT_EQ(cap.lut, 0);
          break;
        case ColumnType::kBram:
          EXPECT_EQ(cap.bram, y % 2 == 0 ? 1 : 0);
          break;
        case ColumnType::kIo:
          EXPECT_TRUE(cap.is_zero());
          break;
      }
    }
  }
}

TEST(Device, DiscontinuityCounting) {
  const Device device = make_xcku5p_sim();  // IO columns at x = 75 and 145
  EXPECT_EQ(device.discontinuities_between(0, device.width()), 2);
  EXPECT_EQ(device.discontinuities_between(0, 75), 0);
  EXPECT_EQ(device.discontinuities_between(0, 76), 1);
  EXPECT_EQ(device.discontinuities_between(76, 145), 0);
  EXPECT_EQ(device.discontinuities_between(146, 76), 1);  // order-insensitive
}

TEST(Device, CompatibleOffsetsIncludeIdentityAndPreserveSignature) {
  const Device device = make_xcku5p_sim();
  const int x0 = 10, w = 9;
  const auto offsets = device.compatible_column_offsets(x0, w);
  ASSERT_FALSE(offsets.empty());
  EXPECT_NE(std::find(offsets.begin(), offsets.end(), 0), offsets.end());
  for (int dx : offsets) {
    for (int i = 0; i < w; ++i) {
      EXPECT_EQ(device.column_type(x0 + dx + i), device.column_type(x0 + i));
    }
  }
}

TEST(Device, ResourceVecArithmetic) {
  ResourceVec a{1, 2, 3, 4, 5}, b{10, 20, 30, 40, 50};
  EXPECT_TRUE(a.fits_in(b));
  EXPECT_FALSE(b.fits_in(a));
  EXPECT_EQ((a + b).lut, 11);
  EXPECT_EQ((b - a).dsp, 36);
  EXPECT_EQ((a * 3).bram, 15);
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(ResourceVec{}.is_zero());
}

TEST(Pblock, ResourcesMatchBruteForce) {
  const Device device = make_tiny_device();
  const Pblock block{2, 3, 9, 14};
  ResourceVec expected;
  for (int x = block.x0; x <= block.x1; ++x) {
    for (int y = block.y0; y <= block.y1; ++y) expected += device.tile_capacity(x, y);
  }
  EXPECT_EQ(pblock_resources(device, block), expected);
}

TEST(Pblock, GeometryHelpers) {
  const Pblock block{2, 4, 5, 9};
  EXPECT_EQ(block.width(), 4);
  EXPECT_EQ(block.height(), 6);
  EXPECT_EQ(block.area(), 24);
  EXPECT_TRUE(block.contains(2, 4));
  EXPECT_FALSE(block.contains(6, 4));
  EXPECT_TRUE(block.overlaps(Pblock{5, 9, 7, 12}));
  EXPECT_FALSE(block.overlaps(Pblock{6, 4, 8, 9}));
  EXPECT_EQ(block.translated(1, -1), (Pblock{3, 3, 6, 8}));
}

TEST(Pblock, FindMinPblockSatisfiesNeed) {
  const Device device = make_xcku5p_sim();
  const ResourceVec need{.lut = 500, .ff = 900, .carry = 60, .dsp = 8, .bram = 12};
  const auto block = find_min_pblock(device, need);
  ASSERT_TRUE(block.has_value());
  EXPECT_TRUE(need.fits_in(pblock_resources(device, *block)));
}

TEST(Pblock, FindMinPblockPrefersSmallArea) {
  const Device device = make_xcku5p_sim();
  const ResourceVec tiny_need{.lut = 16, .ff = 16};
  const auto block = find_min_pblock(device, tiny_need);
  ASSERT_TRUE(block.has_value());
  EXPECT_LE(block->area(), 64);  // a couple of CLB tiles suffice
}

TEST(Pblock, FindMinPblockRejectsImpossibleNeed) {
  const Device device = make_tiny_device();
  const ResourceVec need{.dsp = 1000000};
  EXPECT_FALSE(find_min_pblock(device, need).has_value());
}

TEST(Pblock, RelocationOffsetsStayLegal) {
  const Device device = make_xcku5p_sim();
  const ResourceVec need{.lut = 200, .ff = 300, .dsp = 4, .bram = 4};
  const auto block = find_min_pblock(device, need);
  ASSERT_TRUE(block.has_value());
  const auto anchors = relocation_offsets(device, *block);
  EXPECT_GT(anchors.size(), 10u);  // columnar replication gives many sites
  for (const auto& [dx, dy] : anchors) {
    EXPECT_EQ(dy % 2, 0);  // site parity preserved
    const Pblock moved = block->translated(dx, dy);
    EXPECT_GE(moved.x0, 0);
    EXPECT_GE(moved.y0, 0);
    EXPECT_LT(moved.x1, device.width());
    EXPECT_LT(moved.y1, device.height());
    // Relocated pblock has identical capacity (column compatibility).
    EXPECT_EQ(pblock_resources(device, moved), pblock_resources(device, *block));
  }
}

TEST(Device, ColumnCapacityMatchesBruteForce) {
  for (const Device& device : {make_tiny_device(), make_xcku5p_sim()}) {
    Rng rng(17);
    for (int trial = 0; trial < 400; ++trial) {
      const int x = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(device.width())));
      const int y0 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(device.height())));
      const int h = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(device.height() - y0 + 1)));
      ResourceVec expected;
      for (int y = y0; y < y0 + h; ++y) expected += device.tile_capacity(x, y);
      ASSERT_EQ(device.column_capacity(x, y0, h), expected)
          << device.name() << " x=" << x << " y0=" << y0 << " h=" << h;
    }
  }
}

// find_min_pblock over a sweep of needs, aspect preferences and width caps,
// pinned to the results of the per-call prefix-sum implementation it
// replaced (any drift changes every OOC pblock, hence every store hash).
TEST(Pblock, FindMinPblockSweepMatchesPinned) {
  const Device device = make_xcku5p_sim();
  const ResourceVec needs[] = {
      {.lut = 16, .ff = 16},
      {.lut = 300, .ff = 500, .carry = 30},
      {.lut = 500, .ff = 900, .carry = 60, .dsp = 8, .bram = 12},
      {.lut = 2400, .ff = 3000, .carry = 200, .dsp = 48, .bram = 6},
      {.lut = 9000, .ff = 12000, .carry = 700, .dsp = 120, .bram = 64},
      {.dsp = 30},
      {.lut = 100, .bram = 40},
  };
  std::string results;
  for (const ResourceVec& need : needs) {
    for (double aspect : {1.0, 2.2, 0.45, 3.5, 0.28}) {
      for (int max_width : {0, 12, 31}) {
        const auto block = find_min_pblock(device, need, aspect, max_width);
        results += block ? block->to_string() : std::string("none");
        results += '\n';
      }
    }
  }
  EXPECT_EQ(hash128(results).hex(), "0b56120e0074516ad341729c0817efbd") << results;
}

TEST(Pblock, ResourcesClipToTheDevice) {
  const Device device = make_tiny_device();
  const Pblock inside{0, 0, device.width() - 1, device.height() - 1};
  EXPECT_EQ(pblock_resources(device, Pblock{-3, -5, device.width() + 2, device.height() + 7}),
            pblock_resources(device, inside));
  EXPECT_EQ(pblock_resources(device, inside), device.total());
}

}  // namespace
}  // namespace fpgasim
