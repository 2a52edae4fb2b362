// Recorded send plans: the framed step kernel replaying a plan must
// deliver byte-for-byte what the scanning executors deliver, book the
// same wire traffic, and refuse a seed or schedule the plan does not
// fit instead of misdelivering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "case_names.hpp"
#include "core/payload_exchange.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

using Buffers = ParcelBuffers<std::int64_t>;

/// The destination-ordered canonical seed with seeded payloads.
Buffers seeded_parcels(Rank N, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Buffers buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      buffers[static_cast<std::size_t>(p)].push_back(
          {Block{p, q}, static_cast<std::int64_t>(rng.next())});
    }
  }
  return buffers;
}

/// The same parcels with every node's buffer reversed: still
/// canonical, no longer in destination order.
Buffers reversed(Buffers buffers) {
  for (auto& buf : buffers) std::reverse(buf.begin(), buf.end());
  return buffers;
}

void expect_same_bytes(const Buffers& expected, const Buffers& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t p = 0; p < expected.size(); ++p) {
    ASSERT_EQ(expected[p].size(), actual[p].size()) << "node " << p;
    EXPECT_EQ(std::memcmp(expected[p].data(), actual[p].data(),
                          expected[p].size() * sizeof(Parcel<std::int64_t>)),
              0)
        << "node " << p;
  }
}

/// The wire traffic a replay must reproduce exactly.
void expect_same_traffic(const WirePoolStats& expected, const WirePoolStats& actual) {
  EXPECT_EQ(expected.messages, actual.messages);
  EXPECT_EQ(expected.parcels, actual.parcels);
  EXPECT_EQ(expected.runs_encoded, actual.runs_encoded);
  EXPECT_EQ(expected.bytes_encoded, actual.bytes_encoded);
  EXPECT_EQ(expected.bytes_copied, actual.bytes_copied);
  EXPECT_EQ(expected.contiguous_sends, actual.contiguous_sends);
  EXPECT_EQ(expected.gathered_parcels, actual.gathered_parcels);
}

void expect_same_report(const IntegrityReport& expected, const IntegrityReport& actual) {
  EXPECT_EQ(expected.messages, actual.messages);
  EXPECT_EQ(expected.parcels, actual.parcels);
  EXPECT_EQ(expected.corrupted, actual.corrupted);
  EXPECT_EQ(expected.retransmits, actual.retransmits);
  EXPECT_EQ(expected.final_tick, actual.final_tick);
}

/// Corrupts every channel leaving node 0 during ticks [0, 2): each
/// first-step message crossing one fails twice and goes through on its
/// third attempt.
CorruptionModel node_zero_corruption(const Torus& torus) {
  CorruptionModel model;
  for (int dim = 0; dim < torus.shape().num_dims(); ++dim) {
    for (const Sign sign : {Sign::kPositive, Sign::kNegative}) {
      model.corrupt_channel(0, Direction{dim, sign}, CorruptionKind::kBitFlip, 0, 2,
                            static_cast<std::uint64_t>(dim) + 7);
    }
  }
  return model;
}

struct PlanCase {
  std::vector<std::int32_t> extents;
};

void PrintTo(const PlanCase& c, std::ostream* os) { *os << test::extents_name(c.extents); }

class SendPlanTest : public ::testing::TestWithParam<PlanCase> {};

TEST_P(SendPlanTest, PooledReplayMatchesTheScanningExecutor) {
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  const Rank N = algo.shape().num_nodes();
  detail::SendPlan plan;
  // Call 1 records, calls 2 and 3 replay; each carries other payloads.
  for (std::uint64_t call = 1; call <= 3; ++call) {
    const Buffers seed = seeded_parcels(N, call);
    WireArena scan_arena;
    WireArena plan_arena;
    const Buffers scanned = exchange_payloads_pooled(algo, seed, {.arena = &scan_arena});
    const Buffers planned =
        detail::exchange_payloads_pooled_planned(algo, seed, {.arena = &plan_arena}, &plan);
    ASSERT_TRUE(plan.recorded()) << "call " << call;
    EXPECT_EQ(plan.slots(), static_cast<std::size_t>(algo.total_steps() * N));
    expect_same_bytes(scanned, planned);
    expect_same_traffic(scan_arena.stats(), plan_arena.stats());
    EXPECT_EQ(static_cast<std::int64_t>(plan.run_count()), plan_arena.stats().runs_encoded);
  }
}

TEST_P(SendPlanTest, SealedReplayWithTamperingMatchesTheScanningExecutor) {
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  const Rank N = algo.shape().num_nodes();
  const ParcelTamperer tamperer = node_zero_corruption(algo.torus()).tamperer(algo.torus());
  detail::SendPlan plan;
  for (std::uint64_t call = 1; call <= 3; ++call) {
    const Buffers seed = seeded_parcels(N, call);
    WireArena scan_arena;
    WireArena plan_arena;
    IntegrityReport scan_report;
    IntegrityReport plan_report;
    const Buffers scanned = exchange_payloads_sealed(algo, seed, tamperer,
                                                     {.arena = &scan_arena}, &scan_report);
    const Buffers planned = detail::exchange_payloads_sealed_planned(
        algo, seed, tamperer, {.arena = &plan_arena}, &plan_report, nullptr, &plan);
    ASSERT_TRUE(plan.recorded()) << "call " << call;
    EXPECT_GT(scan_report.corrupted, 0);
    EXPECT_EQ(scan_report.retransmits, scan_report.corrupted);
    expect_same_report(scan_report, plan_report);
    expect_same_bytes(scanned, planned);
    expect_same_traffic(scan_arena.stats(), plan_arena.stats());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SendPlanTest,
                         ::testing::Values(PlanCase{{8, 8}}, PlanCase{{16, 16}},
                                           PlanCase{{12, 8}}, PlanCase{{8, 8, 4}},
                                           PlanCase{{8, 4, 4, 4}}),
                         ::testing::PrintToStringParamName());

TEST(SendPlanRecordingTest, IntegrityErrorWhileRecordingLeavesNoPlan) {
  const SuhShinAape algo(TorusShape({8, 8}));
  const Rank N = algo.shape().num_nodes();
  // Node 0's channels stay corrupt for good: its first message exhausts
  // the budget and the exchange throws before every step was recorded.
  CorruptionModel persistent;
  for (int dim = 0; dim < 2; ++dim) {
    for (const Sign sign : {Sign::kPositive, Sign::kNegative}) {
      persistent.corrupt_channel(0, Direction{dim, sign}, CorruptionKind::kTruncate);
    }
  }
  detail::SendPlan plan;
  EXPECT_THROW(detail::exchange_payloads_sealed_planned(algo, seeded_parcels(N, 1),
                                                        persistent.tamperer(algo.torus()),
                                                        {.max_retransmits = 1}, nullptr,
                                                        nullptr, &plan),
               IntegrityError);
  EXPECT_FALSE(plan.recorded());
  EXPECT_EQ(plan.bytes(), 0u);

  // The next clean call records from scratch; the call after replays.
  const Buffers expected = exchange_payloads_sealed(algo, seeded_parcels(N, 2));
  expect_same_bytes(expected, detail::exchange_payloads_sealed_planned(
                                  algo, seeded_parcels(N, 2), {}, {}, nullptr, nullptr, &plan));
  ASSERT_TRUE(plan.recorded());
  const std::size_t runs = plan.run_count();
  expect_same_bytes(expected, detail::exchange_payloads_sealed_planned(
                                  algo, seeded_parcels(N, 2), {}, {}, nullptr, nullptr, &plan));

  // A replay cut short by the same corruption keeps the plan intact.
  EXPECT_THROW(detail::exchange_payloads_sealed_planned(algo, seeded_parcels(N, 3),
                                                        persistent.tamperer(algo.torus()),
                                                        {.max_retransmits = 1}, nullptr,
                                                        nullptr, &plan),
               IntegrityError);
  ASSERT_TRUE(plan.recorded());
  EXPECT_EQ(plan.run_count(), runs);
  expect_same_bytes(exchange_payloads_sealed(algo, seeded_parcels(N, 4)),
                    detail::exchange_payloads_sealed_planned(algo, seeded_parcels(N, 4), {}, {},
                                                             nullptr, nullptr, &plan));
}

TEST(SendPlanRecordingTest, ReorderedSeedNeitherRecordsNorReplays) {
  const SuhShinAape algo(TorusShape({12, 8}));
  const Rank N = algo.shape().num_nodes();
  const Buffers shuffled = reversed(seeded_parcels(N, 5));

  // An empty plan over a reordered seed scans and stays empty.
  detail::SendPlan pooled;
  detail::SendPlan sealed;
  expect_same_bytes(exchange_payloads_pooled(algo, shuffled),
                    detail::exchange_payloads_pooled_planned(algo, shuffled, {}, &pooled));
  expect_same_bytes(exchange_payloads_sealed(algo, shuffled),
                    detail::exchange_payloads_sealed_planned(algo, shuffled, {}, {}, nullptr,
                                                             nullptr, &sealed));
  EXPECT_FALSE(pooled.recorded());
  EXPECT_FALSE(sealed.recorded());

  // A recorded plan refuses it.
  detail::exchange_payloads_pooled_planned(algo, seeded_parcels(N, 6), {}, &pooled);
  detail::exchange_payloads_sealed_planned(algo, seeded_parcels(N, 6), {}, {}, nullptr, nullptr,
                                           &sealed);
  ASSERT_TRUE(pooled.recorded());
  ASSERT_TRUE(sealed.recorded());
  EXPECT_THROW(detail::exchange_payloads_pooled_planned(algo, shuffled, {}, &pooled),
               std::invalid_argument);
  EXPECT_THROW(detail::exchange_payloads_sealed_planned(algo, shuffled, {}, {}, nullptr,
                                                        nullptr, &sealed),
               std::invalid_argument);
}

/// Runs `call` and expects a std::logic_error whose message has `what`.
template <typename Call>
void expect_refused(Call&& call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << "expected a refusal: " << what;
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(SendPlanRecordingTest, PlanOfAnotherScheduleOrLayoutIsRefused) {
  const SuhShinAape square(TorusShape({8, 8}));
  const SuhShinAape oblong(TorusShape({12, 8}));
  detail::SendPlan plan;
  detail::exchange_payloads_pooled_planned(square, seeded_parcels(64, 1), {}, &plan);
  ASSERT_TRUE(plan.recorded());
  expect_refused(
      [&] {
        detail::exchange_payloads_pooled_planned(oblong, seeded_parcels(96, 1), {}, &plan);
      },
      "send plan recorded for another schedule");
  // Recorded under the §3.3 layout, replayed over the naive order: a
  // run whose first parcel the step does not send trips the replay
  // before anything is misdelivered.
  expect_refused(
      [&] {
        detail::exchange_payloads_pooled_planned(
            square, seeded_parcels(64, 1), {.layout = LayoutPolicy::kNaiveDestinationOrder},
            &plan);
      },
      "recorded send plan does not fit the buffer");
}

/// recv[q][p] == send[p][q].
template <typename T>
void expect_transposed(const std::vector<std::vector<T>>& send,
                       const std::vector<std::vector<T>>& recv) {
  ASSERT_EQ(recv.size(), send.size());
  for (std::size_t q = 0; q < recv.size(); ++q) {
    ASSERT_EQ(recv[q].size(), send.size());
    for (std::size_t p = 0; p < send.size(); ++p) EXPECT_EQ(recv[q][p], send[p][q]);
  }
}

TEST(SendPlanCommunicatorTest, EveryCallAfterTheFirstReplaysTheSameTraffic) {
  const TorusCommunicator comm(TorusShape({8, 8, 4}), CostParams{});
  const auto N = static_cast<std::size_t>(comm.size());
  const auto wire_delta = [&](auto&& call) {
    const WirePoolStats before = comm.wire_stats();
    call();
    return wire_stats_delta(comm.wire_stats(), before);
  };
  const auto matrix = [&](std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<std::vector<std::int64_t>> m(N, std::vector<std::int64_t>(N));
    for (auto& row : m) {
      for (auto& x : row) x = static_cast<std::int64_t>(rng.next());
    }
    return m;
  };

  // Pooled path: alltoall records, alltoall and alltoall_strided replay.
  std::vector<WirePoolStats> pooled;
  for (std::uint64_t call = 1; call <= 3; ++call) {
    const auto send = matrix(call);
    pooled.push_back(wire_delta([&] {
      expect_transposed(send, comm.alltoall(send, AlltoallAlgorithm::kSuhShin));
    }));
  }
  const auto send = matrix(4);
  std::vector<std::vector<std::int64_t>> recv(N, std::vector<std::int64_t>(N));
  pooled.push_back(wire_delta([&] {
    comm.alltoall_strided<std::int64_t>(detail::dense_views(send), detail::dense_views(recv));
  }));
  expect_transposed(send, recv);
  for (std::size_t i = 1; i < pooled.size(); ++i) expect_same_traffic(pooled[0], pooled[i]);

  // Sealed path, with corruption to repair on every call.
  const CorruptionModel corruption = node_zero_corruption(Torus(comm.shape()));
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  std::vector<WirePoolStats> sealed;
  for (std::uint64_t call = 1; call <= 3; ++call) {
    const auto checked_send = matrix(10 + call);
    ExchangeOutcome outcome;
    sealed.push_back(wire_delta([&] {
      expect_transposed(checked_send, comm.alltoall_checked(checked_send, FaultModel{},
                                                            corruption, outcome, options));
    }));
    EXPECT_EQ(outcome.integrity, IntegrityStatus::kCorrected);
    EXPECT_GT(outcome.corrupted_messages, 0);
    EXPECT_EQ(outcome.retransmits, outcome.corrupted_messages);
  }
  for (std::size_t i = 1; i < sealed.size(); ++i) expect_same_traffic(sealed[0], sealed[i]);
}

}  // namespace
}  // namespace torex
