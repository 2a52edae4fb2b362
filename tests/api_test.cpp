// Tests for the application-facing API layers: payload exchange, the
// Alltoallv-style custom workloads, the communicator facade, and
// schedule serialization.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/schedule_io.hpp"
#include "runtime/communicator.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

// ---------------------------------------------------------------------------
// Payload exchange.
// ---------------------------------------------------------------------------

TEST(PayloadExchangeTest, DeliversEveryPayload) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  ParcelBuffers<std::int64_t> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      parcels[static_cast<std::size_t>(p)].push_back(
          {Block{p, q}, static_cast<std::int64_t>(p) * 1000 + q});
    }
  }
  const auto delivered = exchange_payloads(algo, std::move(parcels));
  for (Rank q = 0; q < N; ++q) {
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.payload, static_cast<std::int64_t>(parcel.block.origin) * 1000 + q);
    }
  }
}

TEST(PayloadExchangeTest, MoveOnlyPayloadsWork) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  const Rank N = algo.shape().num_nodes();
  ParcelBuffers<std::unique_ptr<int>> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      parcels[static_cast<std::size_t>(p)].push_back(
          {Block{p, q}, std::make_unique<int>(p * 100 + q)});
    }
  }
  const auto delivered = exchange_payloads(algo, std::move(parcels));
  for (Rank q = 0; q < N; ++q) {
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      ASSERT_NE(parcel.payload, nullptr);
      EXPECT_EQ(*parcel.payload, parcel.block.origin * 100 + q);
    }
  }
}

TEST(PayloadExchangeTest, RejectsMalformedInput) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ParcelBuffers<int> too_few(3);
  EXPECT_THROW(exchange_payloads(algo, std::move(too_few)), std::invalid_argument);

  ParcelBuffers<int> wrong_origin(16);
  for (Rank p = 0; p < 16; ++p) {
    for (Rank q = 0; q < 16; ++q) {
      wrong_origin[static_cast<std::size_t>(p)].push_back({Block{0, q}, 0});
    }
  }
  EXPECT_THROW(exchange_payloads(algo, std::move(wrong_origin)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Alltoallv-style custom workloads.
// ---------------------------------------------------------------------------

TEST(CustomWorkloadTest, SparseExchangeDelivers) {
  // Only a random 20% of (origin, dest) pairs carry a block.
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  const Rank N = algo.shape().num_nodes();
  SplitMix64 rng(2024);
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank d = 0; d < N; ++d) {
      if (rng.next_double() < 0.2) initial[static_cast<std::size_t>(p)].push_back(Block{p, d});
    }
  }
  ExchangeEngine engine(algo);
  EXPECT_NO_THROW(engine.run_custom(std::move(initial)));
}

TEST(CustomWorkloadTest, DuplicateBlocksPerPairDeliver) {
  // Alltoallv with counts > 1: several blocks per (origin, dest).
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank d = 0; d < N; d += 3) {
      for (int copy = 0; copy < 1 + (p + d) % 3; ++copy) {
        initial[static_cast<std::size_t>(p)].push_back(Block{p, d});
      }
    }
  }
  ExchangeEngine engine(algo);
  EXPECT_NO_THROW(engine.run_custom(std::move(initial)));
}

TEST(CustomWorkloadTest, EmptyWorkloadIsANoOp) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace =
      engine.run_custom(std::vector<std::vector<Block>>(64));
  for (const auto& step : trace.steps) {
    EXPECT_EQ(step.total_blocks, 0);
  }
}

TEST(CustomWorkloadTest, SingleSourceScatterUsesOnlyItsRings) {
  // One node scatters to everyone (personalized one-to-all): works and
  // moves exactly N-1 blocks... plus nothing from anyone else.
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) initial[0].push_back(Block{0, d});
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_custom(std::move(initial));
  std::int64_t moved = 0;
  for (const auto& step : trace.steps) moved += step.total_blocks;
  EXPECT_GT(moved, 0);
}

TEST(CustomWorkloadTest, RejectsForeignOrigins) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  std::vector<std::vector<Block>> initial(16);
  initial[3].push_back(Block{4, 7});  // block claims origin 4 but sits at 3
  ExchangeEngine engine(algo);
  EXPECT_THROW(engine.run_custom(std::move(initial)), std::invalid_argument);
}

TEST(CustomWorkloadTest, RejectsMisshapedWorkloads) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ExchangeEngine engine(algo);
  // One buffer short of the node count.
  EXPECT_THROW(engine.run_custom(std::vector<std::vector<Block>>(15)), std::invalid_argument);
  // A destination outside the torus, on either side.
  for (const Rank dest : {Rank{-1}, Rank{16}}) {
    std::vector<std::vector<Block>> initial(16);
    initial[5].push_back(Block{5, dest});
    EXPECT_THROW(engine.run_custom(std::move(initial)), std::invalid_argument) << dest;
  }
  // A rejected workload leaves the engine usable.
  EXPECT_NO_THROW(engine.run_verified());
}

// ---------------------------------------------------------------------------
// Communicator facade.
// ---------------------------------------------------------------------------

TEST(CommunicatorTest, AlltoallPermutesCorrectly) {
  TorusCommunicator comm(TorusShape::make_2d(8, 8), CostParams::balanced());
  const Rank N = comm.size();
  std::vector<std::vector<int>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      send[static_cast<std::size_t>(p)].push_back(p * 1000 + q);
    }
  }
  for (auto algorithm : {AlltoallAlgorithm::kSuhShin, AlltoallAlgorithm::kRing,
                         AlltoallAlgorithm::kDirect, AlltoallAlgorithm::kBruck,
                         AlltoallAlgorithm::kAuto}) {
    double modeled = 0.0;
    const auto recv = comm.alltoall(send, algorithm, 64, &modeled);
    EXPECT_GT(modeled, 0.0);
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)],
                  p * 1000 + q);
      }
    }
  }
}

TEST(CommunicatorTest, AlltoallStridedExchangesColumnsInPlace) {
  // Träff-style datatypes: both endpoints are columns of row-major
  // matrices (stride = row length); the exchange reads and writes the
  // caller's memory through the views with no dense staging rows.
  TorusCommunicator comm(TorusShape::make_2d(4, 4), CostParams::balanced());
  const Rank N = comm.size();
  const auto n = static_cast<std::size_t>(N);
  std::vector<std::int64_t> send_mat(n * n);
  std::vector<std::int64_t> recv_mat(n * n, -1);
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  for (Rank p = 0; p < N; ++p) {
    send.push_back({send_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    recv.push_back({recv_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    for (Rank q = 0; q < N; ++q) {
      send_mat[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(p)] = p * 1000 + q;
    }
  }
  comm.alltoall_strided(send, recv);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)].at(static_cast<std::size_t>(p)), p * 1000 + q);
    }
  }
}

TEST(CommunicatorTest, AlltoallStridedRequiresApplicableShape) {
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  EXPECT_THROW(comm.alltoall_strided(send, recv), std::invalid_argument);
}

TEST(CommunicatorTest, AutoPrefersSuhShinOnValidShapes) {
  // With the balanced parameters the combining schedule dominates both
  // baselines on any reasonable torus.
  TorusCommunicator comm(TorusShape::make_2d(16, 16), CostParams::balanced());
  EXPECT_EQ(comm.select(64), AlltoallAlgorithm::kSuhShin);
  EXPECT_TRUE(comm.suh_shin_applicable());
}

TEST(CommunicatorTest, FallsBackWhenShapeNotApplicable) {
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  EXPECT_FALSE(comm.suh_shin_applicable());
  const AlltoallAlgorithm chosen = comm.select(64);
  EXPECT_NE(chosen, AlltoallAlgorithm::kSuhShin);
  EXPECT_THROW(comm.estimate(AlltoallAlgorithm::kSuhShin, 64), std::invalid_argument);
}

TEST(CommunicatorTest, EstimatesOrderSensibly) {
  TorusCommunicator comm(TorusShape::make_2d(12, 12), CostParams::balanced());
  const double ours = comm.estimate(AlltoallAlgorithm::kSuhShin, 64).total();
  const double ring = comm.estimate(AlltoallAlgorithm::kRing, 64).total();
  EXPECT_LT(ours, ring);
}

TEST(CommunicatorTest, PaddedSuhShinRunsOnAwkwardShapes) {
  // A 10x6 torus cannot run the plain schedule; the padded variant
  // must both price and execute correctly.
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  const Rank N = comm.size();
  std::vector<std::vector<int>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(p * 100 + q);
  }
  double modeled = 0.0;
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShinPadded, 64, &modeled);
  EXPECT_GT(modeled, 0.0);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], p * 100 + q);
    }
  }
  // On a qualifying shape, auto never picks the padded variant.
  TorusCommunicator square(TorusShape({8, 8}), CostParams::balanced());
  EXPECT_NE(square.select(64), AlltoallAlgorithm::kSuhShinPadded);
}

TEST(CommunicatorTest, BruckEstimateAvailableOnAnyShape) {
  // Bruck has no multiple-of-four requirement: it must price (and be
  // selectable) on shapes the Suh-Shin schedule rejects.
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  const double bruck = comm.estimate(AlltoallAlgorithm::kBruck, 64).total();
  EXPECT_GT(bruck, 0.0);
  const AlltoallAlgorithm chosen = comm.select(64);
  EXPECT_TRUE(chosen == AlltoallAlgorithm::kBruck || chosen == AlltoallAlgorithm::kRing ||
              chosen == AlltoallAlgorithm::kDirect);
}

TEST(CommunicatorTest, ToStringNames) {
  EXPECT_EQ(to_string(AlltoallAlgorithm::kSuhShin), "suh-shin");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kAuto), "auto");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kBruck), "bruck");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kRing), "ring");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kDirect), "direct");
}

// ---------------------------------------------------------------------------
// Schedule serialization.
// ---------------------------------------------------------------------------

TEST(ScheduleIoTest, RoundTripsAcrossShapes) {
  for (auto extents : {std::vector<std::int32_t>{8, 8}, {12, 8}, {8, 8, 4}}) {
    const SuhShinAape algo{TorusShape{extents}};
    std::stringstream stream;
    write_schedule(stream, algo);
    const ScheduleDescription parsed = read_schedule(stream);
    EXPECT_TRUE(matches(parsed, algo)) << TorusShape(extents).to_string();
  }
}

TEST(ScheduleIoTest, DetectsTampering) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  std::stringstream stream;
  write_schedule(stream, algo);
  std::string text = stream.str();
  // Flip one direction token.
  const auto pos = text.find(" +1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = '-';
  std::stringstream tampered(text);
  const ScheduleDescription parsed = read_schedule(tampered);
  EXPECT_FALSE(matches(parsed, algo));
}

TEST(ScheduleIoTest, RejectsGarbage) {
  std::stringstream empty("");
  EXPECT_THROW(read_schedule(empty), std::invalid_argument);
  std::stringstream bad_header("hello world");
  EXPECT_THROW(read_schedule(bad_header), std::invalid_argument);
  std::stringstream bad_body("torex-schedule v1\nshape 8x8\nconvention paper2d\nnonsense 1");
  EXPECT_THROW(read_schedule(bad_body), std::invalid_argument);
}

TEST(ScheduleIoTest, SurvivesRandomGarbage) {
  // Fuzz-ish robustness: arbitrary byte soup must either parse or throw
  // std::invalid_argument / std::exception — never crash or hang.
  SplitMix64 rng(0xF00D);
  const std::string alphabet = "torex-schedule v1\nshape 8x\n dirs phase +- 0123456789 kind";
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      soup.push_back(alphabet[static_cast<std::size_t>(rng.next_below(alphabet.size()))]);
    }
    std::stringstream stream(soup);
    try {
      (void)read_schedule(stream);
    } catch (const std::exception&) {
      // expected for malformed input
    }
  }
}

TEST(ScheduleIoTest, CommentsAndBlankLinesIgnored) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  std::stringstream stream;
  write_schedule(stream, algo);
  const std::string text = "# exported schedule\n\n" + stream.str();
  std::stringstream annotated(text);
  EXPECT_TRUE(matches(read_schedule(annotated), algo));
}

}  // namespace
}  // namespace torex
