// Unit tests for src/floorplan: geometry, adjacency, EV7 factory.
#include <gtest/gtest.h>

#include "floorplan/ev7.h"
#include "floorplan/floorplan.h"

namespace hydra::floorplan {
namespace {

Floorplan two_by_one() {
  Floorplan fp;
  fp.add({"left", 0.0, 0.0, 1.0, 2.0});
  fp.add({"right", 1.0, 0.0, 1.0, 2.0});
  return fp;
}

TEST(Block, Geometry) {
  const Block b{"x", 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(b.area(), 12.0);
  EXPECT_DOUBLE_EQ(b.right(), 4.0);
  EXPECT_DOUBLE_EQ(b.top(), 6.0);
  EXPECT_DOUBLE_EQ(b.center_x(), 2.5);
  EXPECT_DOUBLE_EQ(b.center_y(), 4.0);
}

TEST(Floorplan, RejectsBadBlocks) {
  Floorplan fp;
  EXPECT_THROW(fp.add({"zero", 0, 0, 0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fp.add({"neg", 0, 0, 1.0, -1.0}), std::invalid_argument);
  fp.add({"ok", 0, 0, 1.0, 1.0});
  EXPECT_THROW(fp.add({"ok", 1, 0, 1.0, 1.0}), std::invalid_argument);
}

TEST(Floorplan, IndexOf) {
  const Floorplan fp = two_by_one();
  ASSERT_TRUE(fp.index_of("left").has_value());
  EXPECT_EQ(*fp.index_of("left"), 0u);
  EXPECT_FALSE(fp.index_of("nope").has_value());
}

TEST(Floorplan, DieDimensions) {
  const Floorplan fp = two_by_one();
  EXPECT_DOUBLE_EQ(fp.die_width(), 2.0);
  EXPECT_DOUBLE_EQ(fp.die_height(), 2.0);
  EXPECT_DOUBLE_EQ(fp.die_area(), 4.0);
  EXPECT_DOUBLE_EQ(fp.total_block_area(), 4.0);
  EXPECT_TRUE(fp.covers_die());
}

TEST(Floorplan, DetectsOverlap) {
  Floorplan fp;
  fp.add({"a", 0, 0, 2.0, 2.0});
  fp.add({"b", 1.0, 1.0, 2.0, 2.0});
  EXPECT_FALSE(fp.overlap_free());
  EXPECT_FALSE(fp.covers_die());
}

TEST(Floorplan, TouchingEdgesAreNotOverlap) {
  EXPECT_TRUE(two_by_one().overlap_free());
}

TEST(Floorplan, DetectsCoverageGap) {
  Floorplan fp;
  fp.add({"a", 0, 0, 1.0, 1.0});
  fp.add({"b", 1.5, 0, 1.0, 1.0});  // gap between them
  EXPECT_TRUE(fp.overlap_free());
  EXPECT_FALSE(fp.covers_die());
}

TEST(Floorplan, AdjacencySharedEdge) {
  const Floorplan fp = two_by_one();
  const auto adj = fp.adjacencies();
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_EQ(adj[0].a, 0u);
  EXPECT_EQ(adj[0].b, 1u);
  EXPECT_DOUBLE_EQ(adj[0].shared_length, 2.0);
  EXPECT_TRUE(adj[0].vertical_edge);
}

TEST(Floorplan, AdjacencyHorizontalEdge) {
  Floorplan fp;
  fp.add({"bottom", 0, 0, 2.0, 1.0});
  fp.add({"top", 0.5, 1.0, 1.0, 1.0});
  const auto adj = fp.adjacencies();
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_DOUBLE_EQ(adj[0].shared_length, 1.0);  // partial overlap
  EXPECT_FALSE(adj[0].vertical_edge);
}

TEST(Floorplan, CornerTouchIsNotAdjacency) {
  Floorplan fp;
  fp.add({"a", 0, 0, 1.0, 1.0});
  fp.add({"b", 1.0, 1.0, 1.0, 1.0});  // touches only at the corner
  EXPECT_TRUE(fp.adjacencies().empty());
}

// ------------------------------------------------------------- EV7 plan
TEST(Ev7, HasAllBlocksInBlockIdOrder) {
  const Floorplan fp = ev7_floorplan();
  ASSERT_EQ(fp.size(), kNumBlocks);
  for (std::size_t i = 0; i < kNumBlocks; ++i) {
    EXPECT_EQ(fp.block(i).name, block_name(static_cast<BlockId>(i)));
  }
}

TEST(Ev7, TilesTheDieExactly) {
  const Floorplan fp = ev7_floorplan();
  EXPECT_TRUE(fp.overlap_free());
  EXPECT_TRUE(fp.covers_die(1e-9));
  EXPECT_NEAR(fp.die_width(), 16e-3, 1e-12);
  EXPECT_NEAR(fp.die_height(), 16e-3, 1e-12);
}

TEST(Ev7, L2DominatesArea) {
  const Floorplan fp = ev7_floorplan();
  const double l2 =
      fp.block(static_cast<std::size_t>(BlockId::kL2)).area() +
      fp.block(static_cast<std::size_t>(BlockId::kL2Left)).area() +
      fp.block(static_cast<std::size_t>(BlockId::kL2Right)).area();
  EXPECT_GT(l2 / fp.die_area(), 0.7);
}

TEST(Ev7, IntRegIsSmallCentralBlock) {
  const Floorplan fp = ev7_floorplan();
  const Block& reg = fp.block(static_cast<std::size_t>(BlockId::kIntReg));
  EXPECT_LT(reg.area(), 4e-6);  // a few mm^2
  EXPECT_GT(reg.area(), 1e-6);
}

TEST(Ev7, CoreBlocksAreConnected) {
  // Every core block must share an edge with at least one other block —
  // otherwise the lateral thermal network would be disconnected.
  const Floorplan fp = ev7_floorplan();
  const auto adj = fp.adjacencies(1e-9);
  std::vector<int> degree(fp.size(), 0);
  for (const auto& a : adj) {
    ++degree[a.a];
    ++degree[a.b];
  }
  for (std::size_t i = 0; i < fp.size(); ++i) {
    EXPECT_GT(degree[i], 0) << fp.block(i).name;
  }
}

}  // namespace
}  // namespace hydra::floorplan
