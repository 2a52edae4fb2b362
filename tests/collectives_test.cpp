// Tests for the derived collectives (scatter, gather, custom parcel
// workloads) built on the same schedule.
#include <gtest/gtest.h>

#include <string>

#include "case_names.hpp"
#include "core/payload_exchange.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

struct CollectiveCase {
  std::vector<std::int32_t> extents;
  Rank root;
};

void PrintTo(const CollectiveCase& c, std::ostream* os) {
  *os << test::extents_name(c.extents) << "_root" << c.root;
}

class ScatterGatherTest : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(ScatterGatherTest, ScatterDeliversPerNodePayloads) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::string> payloads;
  for (Rank d = 0; d < N; ++d) payloads.push_back("to-" + std::to_string(d));
  const auto received = scatter_payloads(algo, root, std::move(payloads));
  for (Rank d = 0; d < N; ++d) {
    EXPECT_EQ(received[static_cast<std::size_t>(d)], "to-" + std::to_string(d));
  }
}

TEST_P(ScatterGatherTest, GatherCollectsEveryPayloadAtRoot) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::int64_t> payloads;
  for (Rank p = 0; p < N; ++p) payloads.push_back(p * 31 + 7);
  const auto gathered = gather_payloads(algo, root, std::move(payloads));
  ASSERT_EQ(static_cast<Rank>(gathered.size()), N);
  for (Rank p = 0; p < N; ++p) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(p)], p * 31 + 7);
  }
}

TEST_P(ScatterGatherTest, GatherInvertsScatter) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::int64_t> original;
  for (Rank d = 0; d < N; ++d) original.push_back(d * d + 3);
  auto scattered = scatter_payloads(algo, root, original);
  const auto regathered = gather_payloads(algo, root, std::move(scattered));
  EXPECT_EQ(regathered, original);
}

INSTANTIATE_TEST_SUITE_P(Cases, ScatterGatherTest,
                         ::testing::Values(CollectiveCase{{4, 4}, 0},
                                           CollectiveCase{{8, 8}, 0},
                                           CollectiveCase{{8, 8}, 37},
                                           CollectiveCase{{12, 8}, 95},
                                           CollectiveCase{{8, 4, 4}, 64}),
                         ::testing::PrintToStringParamName());

TEST(CustomParcelsTest, RandomSparseWorkloadWithPayloads) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  SplitMix64 rng(99);
  ParcelBuffers<std::uint64_t> parcels(static_cast<std::size_t>(N));
  std::int64_t created = 0;
  for (Rank p = 0; p < N; ++p) {
    const int count = static_cast<int>(rng.next_below(5));
    for (int i = 0; i < count; ++i) {
      const Rank d = static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(N)));
      parcels[static_cast<std::size_t>(p)].push_back(
          {Block{p, d}, (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint64_t>(d)});
      ++created;
    }
  }
  const auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  std::int64_t received = 0;
  for (Rank q = 0; q < N; ++q) {
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.block.dest, q);
      EXPECT_EQ(parcel.payload,
                (static_cast<std::uint64_t>(parcel.block.origin) << 32) |
                    static_cast<std::uint64_t>(q));
      ++received;
    }
  }
  EXPECT_EQ(received, created);
}

TEST(CustomParcelsTest, SelfAddressedParcelsStayPut) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ParcelBuffers<int> parcels(16);
  parcels[5].push_back({Block{5, 5}, 42});
  const auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  ASSERT_EQ(delivered[5].size(), 1u);
  EXPECT_EQ(delivered[5][0].payload, 42);
}

TEST(CustomParcelsTest, RejectsRootAndSizeErrors) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  EXPECT_THROW(scatter_payloads(algo, -1, std::vector<int>(16)), std::invalid_argument);
  EXPECT_THROW(scatter_payloads(algo, 16, std::vector<int>(16)), std::invalid_argument);
  EXPECT_THROW(scatter_payloads(algo, 0, std::vector<int>(15)), std::invalid_argument);
  EXPECT_THROW(gather_payloads(algo, 0, std::vector<int>(17)), std::invalid_argument);
}

}  // namespace
}  // namespace torex
