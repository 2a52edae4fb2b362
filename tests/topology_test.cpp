// Unit tests for the topology substrate: shapes, torus graph, groups.
#include <gtest/gtest.h>

#include <set>

#include "topology/group.hpp"
#include "topology/shape.hpp"
#include "topology/torus.hpp"

namespace torex {
namespace {

TEST(ShapeTest, RankCoordRoundTrip2D) {
  const TorusShape s = TorusShape::make_2d(12, 8);
  EXPECT_EQ(s.num_nodes(), 96);
  EXPECT_EQ(s.num_dims(), 2);
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    EXPECT_EQ(s.rank_of(s.coord_of(r)), r);
  }
  // Last dimension varies fastest: P(r, c) -> r*C + c.
  EXPECT_EQ(s.rank_of({0, 0}), 0);
  EXPECT_EQ(s.rank_of({0, 1}), 1);
  EXPECT_EQ(s.rank_of({1, 0}), 8);
  EXPECT_EQ(s.rank_of({11, 7}), 95);
}

TEST(ShapeTest, RankCoordRoundTrip3D) {
  const TorusShape s = TorusShape::make_3d(8, 8, 4);
  EXPECT_EQ(s.num_nodes(), 256);
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    EXPECT_EQ(s.rank_of(s.coord_of(r)), r);
  }
}

TEST(ShapeTest, RejectsBadInputs) {
  EXPECT_THROW(TorusShape({}), std::invalid_argument);
  EXPECT_THROW(TorusShape({0, 4}), std::invalid_argument);
  EXPECT_THROW(TorusShape({-4, 4}), std::invalid_argument);
  const TorusShape s = TorusShape::make_2d(4, 4);
  EXPECT_THROW(s.rank_of({4, 0}), std::invalid_argument);
  EXPECT_THROW(s.rank_of({0, -1}), std::invalid_argument);
  EXPECT_THROW(s.rank_of({0}), std::invalid_argument);
  EXPECT_THROW(s.coord_of(16), std::invalid_argument);
  EXPECT_THROW(s.coord_of(-1), std::invalid_argument);
}

TEST(ShapeTest, MultipleOfFourAndSorting) {
  EXPECT_TRUE(TorusShape({12, 8}).all_extents_multiple_of_four());
  EXPECT_FALSE(TorusShape({12, 10}).all_extents_multiple_of_four());
  EXPECT_TRUE(TorusShape({12, 8}).extents_non_increasing());
  EXPECT_TRUE(TorusShape({8, 8}).extents_non_increasing());
  EXPECT_FALSE(TorusShape({8, 12}).extents_non_increasing());
  EXPECT_EQ(TorusShape({12, 8, 4}).max_extent(), 12);
}

TEST(ShapeTest, WrapAndMove) {
  const TorusShape s = TorusShape::make_2d(12, 8);
  EXPECT_EQ(s.wrap(0, 12), 0);
  EXPECT_EQ(s.wrap(0, -1), 11);
  EXPECT_EQ(s.wrap(1, 13), 5);
  EXPECT_EQ(s.moved({0, 0}, 1, -1), (Coord{0, 7}));
  EXPECT_EQ(s.moved({11, 0}, 0, 4), (Coord{3, 0}));
}

TEST(ShapeTest, DistanceUsesShortestWay) {
  const TorusShape s = TorusShape::make_2d(12, 12);
  EXPECT_EQ(s.distance({0, 0}, {0, 0}), 0);
  EXPECT_EQ(s.distance({0, 0}, {0, 11}), 1);
  EXPECT_EQ(s.distance({0, 0}, {6, 6}), 12);
  EXPECT_EQ(s.distance({1, 1}, {11, 3}), 4);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(TorusShape({12, 8, 4}).to_string(), "12x8x4");
  EXPECT_EQ(TorusShape({16}).to_string(), "16");
}

TEST(TorusTest, ChannelIdRoundTrip) {
  const Torus t(TorusShape::make_3d(8, 4, 4));
  EXPECT_EQ(t.num_channels(), 128 * 6);
  std::set<ChannelId> seen;
  for (Rank r = 0; r < t.shape().num_nodes(); ++r) {
    for (int d = 0; d < 3; ++d) {
      for (Sign s : {Sign::kPositive, Sign::kNegative}) {
        const ChannelId id = t.channel_id(r, {d, s});
        EXPECT_TRUE(seen.insert(id).second) << "duplicate channel id";
        const Channel ch = t.channel_of(id);
        EXPECT_EQ(ch.from, r);
        EXPECT_EQ(ch.direction.dim, d);
        EXPECT_EQ(ch.direction.sign, s);
      }
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), t.num_channels());
}

TEST(TorusTest, NeighborWraps) {
  const Torus t(TorusShape::make_2d(12, 8));
  const Rank origin = t.shape().rank_of({0, 0});
  EXPECT_EQ(t.neighbor(origin, {0, Sign::kNegative}), t.shape().rank_of({11, 0}));
  EXPECT_EQ(t.neighbor(origin, {1, Sign::kPositive}), t.shape().rank_of({0, 1}));
  EXPECT_EQ(t.neighbor_at(origin, {1, Sign::kNegative}, 4), t.shape().rank_of({0, 4}));
  EXPECT_EQ(t.neighbor_at(origin, {0, Sign::kPositive}, 12), origin);
}

TEST(TorusTest, NeighborAtMatchesCoordinateReference) {
  // The stride arithmetic against the coordinate-vector walk it
  // replaced, on every node, dimension, sign and a spread of hop counts
  // (zero, short, a full ring, past a full ring).
  for (const std::vector<std::int32_t>& extents :
       std::vector<std::vector<std::int32_t>>{
           {8, 8}, {16, 16}, {12, 8}, {8, 8, 4}, {8, 4, 4, 4}, {5, 3}}) {
    const Torus t{TorusShape(extents)};
    const TorusShape& s = t.shape();
    for (Rank node = 0; node < s.num_nodes(); ++node) {
      for (int dim = 0; dim < s.num_dims(); ++dim) {
        for (const Sign sign : {Sign::kPositive, Sign::kNegative}) {
          const Direction dir{dim, sign};
          for (const std::int64_t hops : {std::int64_t{0}, std::int64_t{1}, std::int64_t{3},
                                          std::int64_t{s.extent(dim)},
                                          std::int64_t{s.extent(dim)} + 1}) {
            const Rank reference =
                s.rank_of(s.moved(s.coord_of(node), dim, sign_value(sign) * hops));
            ASSERT_EQ(t.neighbor_at(node, dir, hops), reference)
                << s.to_string() << " node " << node << " dim " << dim << " hops " << hops;
          }
          ASSERT_EQ(t.neighbor(node, dir), t.neighbor_at(node, dir, 1));
        }
      }
    }
  }
}

TEST(TorusTest, StraightPathListsChannels) {
  const Torus t(TorusShape::make_2d(12, 8));
  std::vector<ChannelId> path;
  const Rank from = t.shape().rank_of({0, 6});
  t.straight_path(from, {1, Sign::kPositive}, 4, path);
  ASSERT_EQ(path.size(), 4u);
  // Hops are 6->7->0->1->2 along columns.
  EXPECT_EQ(t.channel_of(path[0]).from, t.shape().rank_of({0, 6}));
  EXPECT_EQ(t.channel_of(path[1]).from, t.shape().rank_of({0, 7}));
  EXPECT_EQ(t.channel_of(path[2]).from, t.shape().rank_of({0, 0}));
  EXPECT_EQ(t.channel_of(path[3]).from, t.shape().rank_of({0, 1}));
}

TEST(TorusTest, DimensionOrderedPathIsMinimal) {
  const Torus t(TorusShape::make_3d(8, 8, 4));
  for (Rank a : {0, 37, 100, 255}) {
    for (Rank b : {0, 1, 63, 200}) {
      if (a == b) continue;
      std::vector<ChannelId> path;
      const std::int64_t hops = t.dimension_ordered_path(a, b, path);
      EXPECT_EQ(hops, t.distance(a, b));
      EXPECT_EQ(static_cast<std::int64_t>(path.size()), hops);
    }
  }
}

TEST(GroupTest, SixteenGroupsIn2D) {
  const TorusShape s = TorusShape::make_2d(12, 12);
  EXPECT_EQ(num_groups(s), 16);
  std::set<Coord> groups;
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    groups.insert(group_coord(s.coord_of(r)));
  }
  EXPECT_EQ(groups.size(), 16u);
}

TEST(GroupTest, GroupSubtorusShape) {
  const TorusShape sub = group_subtorus_shape(TorusShape::make_2d(12, 8));
  EXPECT_EQ(sub.extents(), (std::vector<std::int32_t>{3, 2}));
  EXPECT_THROW(group_subtorus_shape(TorusShape::make_2d(10, 8)), std::invalid_argument);
}

TEST(GroupTest, PaperFigure1Group00Membership) {
  // Figure 1(a): group 00 of a 12x12 torus is the 3x3 subtorus
  // {0,4,8} x {0,4,8}.
  const TorusShape s = TorusShape::make_2d(12, 12);
  const Coord anchor{0, 0};
  int members = 0;
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    const Coord c = s.coord_of(r);
    if (same_group(c, anchor)) {
      ++members;
      EXPECT_EQ(c[0] % 4, 0);
      EXPECT_EQ(c[1] % 4, 0);
    }
  }
  EXPECT_EQ(members, 9);
}

TEST(GroupTest, SubmeshCoordinates) {
  EXPECT_EQ(submesh_coord({5, 11}), (Coord{1, 2}));
  EXPECT_EQ(within_submesh_coord({5, 11}), (Coord{1, 3}));
  EXPECT_EQ(half_submesh_coord({5, 11}), (Coord{0, 1}));
  EXPECT_TRUE(same_submesh({4, 4}, {7, 7}));
  EXPECT_FALSE(same_submesh({4, 4}, {8, 4}));
  EXPECT_TRUE(same_half_submesh({4, 4}, {5, 5}));
  EXPECT_FALSE(same_half_submesh({4, 4}, {6, 4}));
}

TEST(GroupTest, ProxyIsGroupMemberInDestSubmesh) {
  const TorusShape s = TorusShape::make_3d(12, 8, 4);
  for (Rank o : {0, 17, 100, 250, 383}) {
    for (Rank d : {0, 5, 99, 200, 382}) {
      const Coord oc = s.coord_of(o);
      const Coord dc = s.coord_of(d);
      const Coord p = proxy_coord(oc, dc);
      EXPECT_TRUE(same_group(p, oc));
      EXPECT_TRUE(same_submesh(p, dc));
      // The proxy is unique: any other node satisfying both must be p.
      EXPECT_EQ(proxy_coord(p, dc), p);
    }
  }
}

}  // namespace
}  // namespace torex
