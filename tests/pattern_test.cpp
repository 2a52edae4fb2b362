// Tests for the direction-assignment patterns (paper §3.2, §4.1, §4.2).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "case_names.hpp"
#include "core/pattern.hpp"
#include "topology/shape.hpp"

namespace torex {
namespace {

// ---------------------------------------------------------------------------
// 2D literal rules (paper §3.2). Convention kPaper2D, dims (r, c) = (0, 1).
// ---------------------------------------------------------------------------

TEST(Pattern2DTest, Phase1MatchesPaperRules) {
  const TorusShape s = TorusShape::make_2d(12, 12);
  for (std::int32_t r = 0; r < 12; ++r) {
    for (std::int32_t c = 0; c < 12; ++c) {
      const Direction d = scatter_direction(s, {r, c}, 1, PatternConvention::kPaper2D);
      switch ((r + c) % 4) {
        case 0:  // P(r,c) -> P(r, c+4)
          EXPECT_EQ(d.dim, 1);
          EXPECT_EQ(d.sign, Sign::kPositive);
          break;
        case 1:  // P(r,c) -> P(r+4, c)
          EXPECT_EQ(d.dim, 0);
          EXPECT_EQ(d.sign, Sign::kPositive);
          break;
        case 2:  // P(r,c) -> P(r, c-4)
          EXPECT_EQ(d.dim, 1);
          EXPECT_EQ(d.sign, Sign::kNegative);
          break;
        default:  // P(r,c) -> P(r-4, c)
          EXPECT_EQ(d.dim, 0);
          EXPECT_EQ(d.sign, Sign::kNegative);
          break;
      }
    }
  }
}

TEST(Pattern2DTest, Phase2MatchesPaperRules) {
  const TorusShape s = TorusShape::make_2d(12, 12);
  for (std::int32_t r = 0; r < 12; ++r) {
    for (std::int32_t c = 0; c < 12; ++c) {
      const Direction d = scatter_direction(s, {r, c}, 2, PatternConvention::kPaper2D);
      switch ((r + c) % 4) {
        case 0: EXPECT_EQ(d, (Direction{0, Sign::kPositive})); break;
        case 1: EXPECT_EQ(d, (Direction{1, Sign::kPositive})); break;
        case 2: EXPECT_EQ(d, (Direction{0, Sign::kNegative})); break;
        default: EXPECT_EQ(d, (Direction{1, Sign::kNegative})); break;
      }
    }
  }
}

TEST(Pattern2DTest, QuarterExchangeMatchesPaperPhase3) {
  // §3.2 phase 3, step 1: even (r+c) exchanges along c, odd along r;
  // step 2 swaps. Signs from the node's own coordinate mod 4.
  const TorusShape s = TorusShape::make_2d(8, 8);
  for (std::int32_t r = 0; r < 8; ++r) {
    for (std::int32_t c = 0; c < 8; ++c) {
      const int step1 = quarter_exchange_dim(s, {r, c}, 1, PatternConvention::kPaper2D);
      const int step2 = quarter_exchange_dim(s, {r, c}, 2, PatternConvention::kPaper2D);
      if ((r + c) % 2 == 0) {
        EXPECT_EQ(step1, 1);
        EXPECT_EQ(step2, 0);
      } else {
        EXPECT_EQ(step1, 0);
        EXPECT_EQ(step2, 1);
      }
    }
  }
  EXPECT_EQ(quarter_exchange_sign({0, 1}, 1), Sign::kPositive);
  EXPECT_EQ(quarter_exchange_sign({0, 2}, 1), Sign::kNegative);
  EXPECT_EQ(quarter_exchange_sign({3, 0}, 0), Sign::kNegative);
}

TEST(Pattern2DTest, PairExchangeMatchesPaperPhase4) {
  // §3.2 phase 4: step 1 along c (by c parity), step 2 along r.
  const TorusShape s = TorusShape::make_2d(8, 8);
  EXPECT_EQ(pair_exchange_dim(s, 1, PatternConvention::kPaper2D), 1);
  EXPECT_EQ(pair_exchange_dim(s, 2, PatternConvention::kPaper2D), 0);
  EXPECT_EQ(pair_exchange_sign({0, 0}, 1), Sign::kPositive);
  EXPECT_EQ(pair_exchange_sign({0, 1}, 1), Sign::kNegative);
}

// ---------------------------------------------------------------------------
// 3D literal rules (paper §4.1). Convention kNested, dims (X, Y, Z).
// ---------------------------------------------------------------------------

TEST(Pattern3DTest, Phase1MatchesPaperRules) {
  const TorusShape s = TorusShape::make_3d(12, 12, 12);
  for (std::int32_t x = 0; x < 12; ++x) {
    for (std::int32_t y = 0; y < 12; ++y) {
      for (std::int32_t z = 0; z < 12; ++z) {
        const Direction d = scatter_direction(s, {x, y, z}, 1, PatternConvention::kNested);
        if (z % 4 == 1) {
          EXPECT_EQ(d, (Direction{2, Sign::kPositive}));
        } else if (z % 4 == 3) {
          EXPECT_EQ(d, (Direction{2, Sign::kNegative}));
        } else {
          switch ((x + y) % 4) {
            case 0: EXPECT_EQ(d, (Direction{0, Sign::kPositive})); break;
            case 1: EXPECT_EQ(d, (Direction{1, Sign::kPositive})); break;
            case 2: EXPECT_EQ(d, (Direction{0, Sign::kNegative})); break;
            default: EXPECT_EQ(d, (Direction{1, Sign::kNegative})); break;
          }
        }
      }
    }
  }
}

TEST(Pattern3DTest, Phase2MatchesPaperRules) {
  // §4.1 phase 2: pattern B in every X-Y plane, regardless of Z.
  const TorusShape s = TorusShape::make_3d(12, 12, 12);
  for (std::int32_t x = 0; x < 12; ++x) {
    for (std::int32_t y = 0; y < 12; ++y) {
      for (std::int32_t z = 0; z < 12; ++z) {
        const Direction d = scatter_direction(s, {x, y, z}, 2, PatternConvention::kNested);
        switch ((x + y) % 4) {
          case 0: EXPECT_EQ(d, (Direction{1, Sign::kPositive})); break;
          case 1: EXPECT_EQ(d, (Direction{0, Sign::kPositive})); break;
          case 2: EXPECT_EQ(d, (Direction{1, Sign::kNegative})); break;
          default: EXPECT_EQ(d, (Direction{0, Sign::kNegative})); break;
        }
      }
    }
  }
}

TEST(Pattern3DTest, Phase3MatchesPaperRules) {
  const TorusShape s = TorusShape::make_3d(12, 12, 12);
  for (std::int32_t x = 0; x < 12; ++x) {
    for (std::int32_t y = 0; y < 12; ++y) {
      for (std::int32_t z = 0; z < 12; ++z) {
        const Direction d = scatter_direction(s, {x, y, z}, 3, PatternConvention::kNested);
        if (z % 4 == 0) {
          EXPECT_EQ(d, (Direction{2, Sign::kPositive}));
        } else if (z % 4 == 2) {
          EXPECT_EQ(d, (Direction{2, Sign::kNegative}));
        } else {
          switch ((x + y) % 4) {
            case 0: EXPECT_EQ(d, (Direction{0, Sign::kPositive})); break;
            case 1: EXPECT_EQ(d, (Direction{1, Sign::kPositive})); break;
            case 2: EXPECT_EQ(d, (Direction{0, Sign::kNegative})); break;
            default: EXPECT_EQ(d, (Direction{1, Sign::kNegative})); break;
          }
        }
      }
    }
  }
}

TEST(Pattern3DTest, QuarterExchangeDimOrders) {
  // Derived from §4.1 phase 4 (see DESIGN.md erratum note):
  //   Z even, (X+Y) even: [X, Y, Z];  Z even, odd: [Y, X, Z]
  //   Z odd,  (X+Y) even: [Z, Y, X];  Z odd,  odd: [Z, X, Y]
  const TorusShape s = TorusShape::make_3d(8, 8, 8);
  auto order = [&](Coord c) {
    std::vector<int> o;
    for (int step = 1; step <= 3; ++step) {
      o.push_back(quarter_exchange_dim(s, c, step, PatternConvention::kNested));
    }
    return o;
  };
  EXPECT_EQ(order({0, 0, 0}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(order({0, 1, 0}), (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(order({0, 0, 1}), (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(order({0, 1, 1}), (std::vector<int>{2, 0, 1}));
}

// ---------------------------------------------------------------------------
// Structural properties that must hold in any dimension.
// ---------------------------------------------------------------------------

struct PatternCase {
  std::vector<std::int32_t> extents;
  PatternConvention convention;
};

void PrintTo(const PatternCase& c, std::ostream* os) {
  *os << test::extents_name(c.extents) << '_' << test::convention_name(c.convention);
}

class PatternPropertyTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(PatternPropertyTest, AssignmentIsAGroupInvariant) {
  const TorusShape s(GetParam().extents);
  const auto conv = GetParam().convention;
  // Two nodes with equal coordinates mod 4 get identical assignments.
  for (Rank a = 0; a < s.num_nodes(); a += 7) {
    for (Rank b = a; b < s.num_nodes(); b += 13) {
      const Coord ca = s.coord_of(a);
      const Coord cb = s.coord_of(b);
      bool same = true;
      for (std::size_t d = 0; d < ca.size(); ++d) same &= (ca[d] % 4 == cb[d] % 4);
      if (!same) continue;
      for (int phase = 1; phase <= s.num_dims(); ++phase) {
        EXPECT_EQ(scatter_direction(s, ca, phase, conv), scatter_direction(s, cb, phase, conv));
      }
      for (int step = 1; step <= s.num_dims(); ++step) {
        EXPECT_EQ(quarter_exchange_dim(s, ca, step, conv),
                  quarter_exchange_dim(s, cb, step, conv));
      }
    }
  }
}

TEST_P(PatternPropertyTest, ScatterPhasesCoverEveryDimensionOnce) {
  const TorusShape s(GetParam().extents);
  const auto conv = GetParam().convention;
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    const Coord c = s.coord_of(r);
    std::set<int> dims;
    for (int phase = 1; phase <= s.num_dims(); ++phase) {
      dims.insert(scatter_direction(s, c, phase, conv).dim);
    }
    EXPECT_EQ(static_cast<int>(dims.size()), s.num_dims())
        << "node " << r << " does not scatter along every dimension";
  }
}

TEST_P(PatternPropertyTest, QuarterOrderIsAPermutationOfDims) {
  const TorusShape s(GetParam().extents);
  const auto conv = GetParam().convention;
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    const Coord c = s.coord_of(r);
    std::set<int> dims;
    for (int step = 1; step <= s.num_dims(); ++step) {
      dims.insert(quarter_exchange_dim(s, c, step, conv));
    }
    EXPECT_EQ(static_cast<int>(dims.size()), s.num_dims());
  }
}

TEST_P(PatternPropertyTest, QuarterPartnersShareStepDimension) {
  // Pairwise consistency: if p exchanges along dim d in step s, its
  // partner (p +- 2 along d) must pick the same dimension in step s and
  // the opposite sign, so the exchange is a symmetric pair.
  const TorusShape s(GetParam().extents);
  const auto conv = GetParam().convention;
  for (Rank r = 0; r < s.num_nodes(); ++r) {
    const Coord c = s.coord_of(r);
    for (int step = 1; step <= s.num_dims(); ++step) {
      const int dim = quarter_exchange_dim(s, c, step, conv);
      const Sign sign = quarter_exchange_sign(c, dim);
      Coord partner = c;
      partner[static_cast<std::size_t>(dim)] =
          static_cast<std::int32_t>(partner[static_cast<std::size_t>(dim)] + 2 * sign_value(sign));
      // +-2 with sign chosen by (coord mod 4) never leaves the 4-block.
      ASSERT_EQ(partner[static_cast<std::size_t>(dim)] / 4, c[static_cast<std::size_t>(dim)] / 4);
      EXPECT_EQ(quarter_exchange_dim(s, partner, step, conv), dim);
      EXPECT_EQ(quarter_exchange_sign(partner, dim), flip(sign));
    }
  }
}

TEST_P(PatternPropertyTest, ScatterLinesUseSingleResidueClassPerDirection) {
  // Contention-freedom mechanics: within any 1-D line of the torus and
  // any phase, the nodes transmitting along (dim of the line, sign)
  // must all share the same coordinate residue mod 4, so their 4-hop
  // paths tile the ring disjointly.
  const TorusShape s(GetParam().extents);
  const auto conv = GetParam().convention;
  for (int phase = 1; phase <= s.num_dims(); ++phase) {
    for (int line_dim = 0; line_dim < s.num_dims(); ++line_dim) {
      // Enumerate lines by fixing all other coordinates.
      for (Rank base = 0; base < s.num_nodes(); ++base) {
        const Coord bc = s.coord_of(base);
        if (bc[static_cast<std::size_t>(line_dim)] != 0) continue;  // one rep per line
        std::set<std::int32_t> pos_residues, neg_residues;
        for (std::int32_t v = 0; v < s.extent(line_dim); ++v) {
          Coord c = bc;
          c[static_cast<std::size_t>(line_dim)] = v;
          const Direction d = scatter_direction(s, c, phase, conv);
          if (d.dim != line_dim) continue;
          (d.sign == Sign::kPositive ? pos_residues : neg_residues).insert(v % 4);
        }
        EXPECT_LE(pos_residues.size(), 1u);
        EXPECT_LE(neg_residues.size(), 1u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PatternPropertyTest,
    ::testing::Values(
        PatternCase{{8, 8}, PatternConvention::kPaper2D},
        PatternCase{{12, 8}, PatternConvention::kPaper2D},
        PatternCase{{8, 8}, PatternConvention::kNested},
        PatternCase{{16, 4}, PatternConvention::kPaper2D},
        PatternCase{{8, 8, 4}, PatternConvention::kNested},
        PatternCase{{8, 8, 4}, PatternConvention::kPaper2D},
        PatternCase{{12, 8, 4}, PatternConvention::kNested},
        PatternCase{{8, 4, 4, 4}, PatternConvention::kNested},
        PatternCase{{16, 12, 8, 4}, PatternConvention::kNested},
        PatternCase{{8, 8, 8, 8}, PatternConvention::kNested},
        PatternCase{{4, 4, 4, 4, 4}, PatternConvention::kNested},
        PatternCase{{8, 4, 4, 4, 4, 4}, PatternConvention::kNested}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace torex
