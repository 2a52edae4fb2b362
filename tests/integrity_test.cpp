// End-to-end data integrity: CRC-32 and wire primitives, corruption
// faults, the detect-and-retransmit protocol, the checked communicator
// entry point with escalation into the recovery chain, and a miniature
// chaos differential sweep. The TOX3 frame codec itself is covered by
// wire_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/payload_exchange.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

// --- CRC-32 ------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value: CRC-32 of the ASCII digits "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0x00000000u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), crc32(data.data(), data.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 7);
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(crc32(data.data(), data.size()), clean) << "bit " << bit << " undetected";
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

// --- Wire primitives ---------------------------------------------------

TEST(WireTest, RoundTrip) {
  std::vector<std::byte> wire;
  wire_put_u32(wire, 0xDEADBEEFu);
  wire.resize(wire.size() + 8);
  wire_write_u64(wire.data() + 4, 0x0123456789ABCDEFull);
  // Little-endian on the wire, whatever the host's byte order.
  ASSERT_EQ(wire.size(), 12u);
  EXPECT_EQ(wire[0], std::byte{0xEF});
  EXPECT_EQ(wire[3], std::byte{0xDE});
  EXPECT_EQ(wire[4], std::byte{0xEF});
  EXPECT_EQ(wire[11], std::byte{0x01});
  std::size_t offset = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(wire_get_u32(wire, offset, a));
  ASSERT_TRUE(wire_get_u64(wire, offset, b));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(offset, wire.size());
  // Reads past the end must fail without advancing.
  EXPECT_FALSE(wire_get_u32(wire, offset, a));
  EXPECT_EQ(offset, wire.size());
}

TEST(WireTest, PutU32AppendsAfterExistingBytes) {
  // wire_put_u32 appends: earlier bytes stay put, the word lands
  // exactly where wire_write_u32 would patch it, and the reader finds
  // it at that offset and no further.
  std::vector<std::byte> wire{std::byte{0xA1}, std::byte{0xB2}, std::byte{0xC3}};
  wire_put_u32(wire, 0x11223344u);
  ASSERT_EQ(wire.size(), 7u);
  EXPECT_EQ(wire[0], std::byte{0xA1});
  EXPECT_EQ(wire[1], std::byte{0xB2});
  EXPECT_EQ(wire[2], std::byte{0xC3});
  std::vector<std::byte> patched(7, std::byte{0});
  wire_write_u32(patched.data() + 3, 0x11223344u);
  EXPECT_TRUE(std::equal(wire.begin() + 3, wire.end(), patched.begin() + 3));
  EXPECT_EQ(wire[3], std::byte{0x44});
  EXPECT_EQ(wire[6], std::byte{0x11});

  std::size_t offset = 3;
  std::uint32_t v = 0;
  ASSERT_TRUE(wire_get_u32(wire, offset, v));
  EXPECT_EQ(v, 0x11223344u);
  EXPECT_EQ(offset, wire.size());
  offset = 4;
  EXPECT_FALSE(wire_get_u32(wire, offset, v)) << "a short read must fail";
  EXPECT_EQ(offset, 4u);
}

// --- Corruption model --------------------------------------------------

TEST(CorruptionModelTest, ActivationWindows) {
  const Torus torus(TorusShape({4, 4}));
  CorruptionModel model;
  model.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kBitFlip, 5, 10);
  const ChannelId id = torus.channel_id(0, Direction{0, Sign::kPositive});
  EXPECT_FALSE(model.find(torus, id, 4).has_value());
  EXPECT_TRUE(model.find(torus, id, 5).has_value());
  EXPECT_TRUE(model.find(torus, id, 9).has_value());
  EXPECT_FALSE(model.find(torus, id, 10).has_value());
  EXPECT_FALSE(model.any_permanent());
  model.corrupt_channel(1, Direction{1, Sign::kNegative}, CorruptionKind::kTruncate);
  EXPECT_TRUE(model.any_permanent());
  EXPECT_EQ(model.size(), 2u);
}

TEST(CorruptionModelTest, SeededInjectionIsDeterministicAndDistinct) {
  const Torus torus(TorusShape({4, 4}));
  CorruptionModel a, b;
  a.inject_random_corruptions(torus, 42, 6);
  b.inject_random_corruptions(torus, 42, 6);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(torus.channel_id(a.specs()[i].channel.from, a.specs()[i].channel.direction),
              torus.channel_id(b.specs()[i].channel.from, b.specs()[i].channel.direction));
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(torus.channel_id(a.specs()[i].channel.from, a.specs()[i].channel.direction),
                torus.channel_id(a.specs()[j].channel.from, a.specs()[j].channel.direction));
    }
  }
}

TEST(CorruptionModelTest, ApplyDamagesWire) {
  CorruptionSpec spec;
  spec.kind = CorruptionKind::kBitFlip;
  spec.seed = 7;
  TransferContext ctx;
  ctx.tick = 3;
  std::vector<std::byte> wire(32, std::byte{0});
  CorruptionModel::apply(spec, ctx, wire);
  int flipped = 0;
  for (std::byte b : wire) {
    flipped += (b != std::byte{0}) ? 1 : 0;
  }
  EXPECT_EQ(flipped, 1);

  spec.kind = CorruptionKind::kTruncate;
  std::vector<std::byte> wire2(32, std::byte{0});
  CorruptionModel::apply(spec, ctx, wire2);
  EXPECT_LT(wire2.size(), 32u);
  EXPECT_GE(wire2.size(), 16u);  // drops at most half
}

// --- Sealed exchange protocol ------------------------------------------

ParcelBuffers<std::int64_t> canonical_parcels(Rank N) {
  ParcelBuffers<std::int64_t> buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      buffers[static_cast<std::size_t>(p)].push_back({Block{p, q}, p * 10000 + q});
    }
  }
  return buffers;
}

void expect_delivered(Rank N, const ParcelBuffers<std::int64_t>& out) {
  for (Rank q = 0; q < N; ++q) {
    ASSERT_EQ(out[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
    for (const auto& parcel : out[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.block.dest, q);
      EXPECT_EQ(parcel.payload, parcel.block.origin * 10000 + q);
    }
  }
}

TEST(SealedExchangeTest, CleanWireMatchesUnsealed) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  IntegrityReport report;
  const auto out = exchange_payloads_sealed(algo, canonical_parcels(N), {}, {}, &report);
  expect_delivered(N, out);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.retransmits, 0);
  EXPECT_GT(report.messages, 0);
  EXPECT_GT(report.parcels, 0);
  // One tick per step on a clean wire.
  EXPECT_EQ(report.final_tick, algo.total_steps());
}

TEST(SealedExchangeTest, TransientCorruptionHealsUnderRetransmit) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  // Corrupt every transmission at tick 0 only: the first attempt of the
  // first step is damaged everywhere it crosses the wire; retransmits
  // at tick >= 1 go through.
  CorruptionModel model;
  const Torus& torus = algo.torus();
  for (Rank node = 0; node < N; ++node) {
    for (int dim = 0; dim < 2; ++dim) {
      for (Sign sign : {Sign::kPositive, Sign::kNegative}) {
        model.corrupt_channel(node, Direction{dim, sign}, CorruptionKind::kBitFlip, 0, 1,
                              static_cast<std::uint64_t>(node));
      }
    }
  }
  IntegrityReport report;
  const auto out =
      exchange_payloads_sealed(algo, canonical_parcels(N), model.tamperer(torus), {}, &report);
  expect_delivered(N, out);
  EXPECT_GT(report.corrupted, 0);
  EXPECT_GT(report.retransmits, 0);
  EXPECT_FALSE(report.fatal.has_value());
}

TEST(CorruptionModelTest, TampererAppliesTheFirstActiveChannelAlongThePath) {
  // A 4-hop transfer eastward from (0,6) crosses the channels leaving
  // (0,6), (0,7), (0,0) and (0,1), in that order. The specs are listed
  // out of path order; the hook must damage the frame with the first
  // one along the path that is active at the transfer's tick.
  const Torus torus(TorusShape::make_2d(8, 8));
  const TorusShape& s = torus.shape();
  const Direction east{1, Sign::kPositive};
  const Rank from = s.rank_of({0, 6});
  CorruptionModel model;
  model.corrupt_channel(s.rank_of({0, 1}), east, CorruptionKind::kTruncate, 0, kFaultForever,
                        22);
  model.corrupt_channel(s.rank_of({0, 7}), east, CorruptionKind::kBitFlip, 5, 6, 33);
  model.corrupt_channel(s.rank_of({0, 0}), east, CorruptionKind::kBitFlip, 0, kFaultForever,
                        11);
  model.corrupt_channel(from, Direction{1, Sign::kNegative}, CorruptionKind::kTruncate, 0,
                        kFaultForever, 44);  // off the path
  const ParcelTamperer hook = model.tamperer(torus);
  const std::vector<std::byte> clean(64, std::byte{0x5A});
  const auto expect_damage = [&](std::int64_t tick, int hops, const CorruptionSpec* spec) {
    const TransferContext ctx{.phase = 1, .step = 1, .src = from,
                              .dst = torus.neighbor_at(from, east, hops), .direction = east,
                              .hops = hops, .tick = tick, .attempt = 0};
    std::vector<std::byte> wire = clean;
    EXPECT_EQ(hook(ctx, wire), spec != nullptr) << "tick " << tick << " hops " << hops;
    std::vector<std::byte> expected = clean;
    if (spec != nullptr) CorruptionModel::apply(*spec, ctx, expected);
    EXPECT_EQ(wire, expected) << "tick " << tick << " hops " << hops;
  };
  const std::vector<CorruptionSpec>& specs = model.specs();
  expect_damage(0, 4, &specs[2]);  // (0,0) comes before (0,1)
  expect_damage(5, 4, &specs[1]);  // (0,7) is active at tick 5 only
  expect_damage(0, 2, nullptr);    // (0,7) inactive, (0,0) not reached
  expect_damage(0, 0, nullptr);
}

TEST(SealedExchangeTest, PermanentCorruptionExhaustsBudgetAndThrows) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  CorruptionModel model;
  model.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kTruncate);
  IntegrityOptions options;
  options.max_retransmits = 2;
  IntegrityReport report;
  try {
    exchange_payloads_sealed(algo, canonical_parcels(N), model.tamperer(algo.torus()), options,
                             &report);
    FAIL() << "permanent corruption must raise IntegrityError";
  } catch (const IntegrityError& e) {
    ASSERT_TRUE(e.report().fatal.has_value());
    EXPECT_EQ(e.report().fatal->attempt, 2);
    EXPECT_NE(std::string(e.what()).find("retransmit budget exhausted"), std::string::npos);
    // report_out must match the thrown report even on failure.
    ASSERT_TRUE(report.fatal.has_value());
    EXPECT_EQ(report.fatal->tick, e.report().fatal->tick);
    EXPECT_EQ(report.corrupted, e.report().corrupted);
  }
}

TEST(SealedExchangeTest, ViolationDescribeNamesTheStep) {
  IntegrityViolation v;
  v.phase = 2;
  v.step = 3;
  v.src = 4;
  v.dst = 8;
  v.tick = 11;
  v.attempt = 1;
  v.reason = "frame checksum mismatch";
  const std::string text = v.describe();
  EXPECT_NE(text.find("phase 2"), std::string::npos);
  EXPECT_NE(text.find("step 3"), std::string::npos);
  EXPECT_NE(text.find("4 -> 8"), std::string::npos);
  EXPECT_NE(text.find("frame checksum mismatch"), std::string::npos);
}

// --- exchange_payloads preconditions -----------------------------------

TEST(PayloadPreconditionTest, RejectsDuplicateDestination) {
  const SuhShinAape algo(TorusShape({4, 4}));
  auto buffers = canonical_parcels(16);
  buffers[0][1].block.dest = 0;  // two parcels for destination 0
  EXPECT_THROW(exchange_payloads(algo, std::move(buffers)), std::invalid_argument);
}

TEST(PayloadPreconditionTest, RejectsWrongOrigin) {
  const SuhShinAape algo(TorusShape({4, 4}));
  auto buffers = canonical_parcels(16);
  buffers[2][0].block.origin = 3;
  EXPECT_THROW(exchange_payloads(algo, std::move(buffers)), std::invalid_argument);
}

TEST(PayloadPreconditionTest, RejectsShortRow) {
  const SuhShinAape algo(TorusShape({4, 4}));
  auto buffers = canonical_parcels(16);
  buffers[5].pop_back();
  EXPECT_THROW(exchange_payloads(algo, std::move(buffers)), std::invalid_argument);
}

TEST(PayloadPreconditionTest, RejectsDestinationOutOfRange) {
  const SuhShinAape algo(TorusShape({4, 4}));
  auto buffers = canonical_parcels(16);
  buffers[1][2].block.dest = 16;
  EXPECT_THROW(exchange_payloads(algo, std::move(buffers)), std::invalid_argument);
}

TEST(PayloadPreconditionTest, SealedVariantChecksTheSamePreconditions) {
  const SuhShinAape algo(TorusShape({4, 4}));
  auto buffers = canonical_parcels(16);
  buffers[0][1].block.dest = 0;
  EXPECT_THROW(exchange_payloads_sealed(algo, std::move(buffers)), std::invalid_argument);
}

// --- Checked communicator ----------------------------------------------

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      send[static_cast<std::size_t>(p)].push_back(p * 10000 + q);
    }
  }
  return send;
}

void expect_aape_permutation(const std::vector<std::vector<std::int64_t>>& send,
                             const std::vector<std::vector<std::int64_t>>& recv) {
  ASSERT_EQ(recv.size(), send.size());
  for (std::size_t q = 0; q < send.size(); ++q) {
    ASSERT_EQ(recv[q].size(), send.size());
    for (std::size_t p = 0; p < send.size(); ++p) {
      EXPECT_EQ(recv[q][p], send[p][q]) << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(CheckedExchangeTest, CleanRunReportsClean) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, CorruptionModel{}, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kClean);
  EXPECT_EQ(outcome.corrupted_messages, 0);
  EXPECT_EQ(outcome.escalations, 0);
  EXPECT_FALSE(outcome.integrity_failure.has_value());
}

TEST(CheckedExchangeTest, TransientCorruptionIsCorrected) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  // Node 0 transmits along {1, +} in the first active step (quarter
  // exchange, tick 0). Active for that tick only: detected, then healed
  // by a retransmission one tick later.
  corruption.corrupt_channel(0, Direction{1, Sign::kPositive}, CorruptionKind::kBitFlip, 0, 1);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kCorrected);
  EXPECT_GT(outcome.corrupted_messages, 0);
  EXPECT_GT(outcome.retransmits, 0);
  EXPECT_EQ(outcome.escalations, 0);
  EXPECT_NE(outcome.summary().find("integrity=corrected"), std::string::npos);
}

TEST(CheckedExchangeTest, PermanentCorruptionEscalatesIntoRecovery) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  corruption.corrupt_channel(5, Direction{1, Sign::kPositive}, CorruptionKind::kTruncate);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kEscalated);
  EXPECT_GE(outcome.escalations, 1);
  EXPECT_GT(outcome.corrupted_messages, 0);
  ASSERT_TRUE(outcome.integrity_failure.has_value());
  EXPECT_EQ(outcome.integrity_failure->src, 5);
  // The realized plan routed around the poisoned channel.
  EXPECT_TRUE(outcome.degraded || outcome.algorithm != AlltoallAlgorithm::kSuhShin);
  EXPECT_NE(outcome.summary().find("integrity=escalated"), std::string::npos);
}

TEST(CheckedExchangeTest, EscalationComposesWithChannelFaults) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  // A transient channel fault: retry/backoff waits it out and the
  // pristine schedule runs — straight into permanent corruption on node
  // 9's quarter-exchange channel, which must then escalate. Both
  // recovery mechanisms fire in one exchange.
  FaultModel faults;
  faults.fail_channel(3, Direction{0, Sign::kPositive}, 0, 2);
  CorruptionModel corruption;
  corruption.corrupt_channel(9, Direction{0, Sign::kNegative}, CorruptionKind::kBitFlip);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, faults, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kEscalated);
  EXPECT_GE(outcome.escalations, 1);
  EXPECT_GT(outcome.waited_ticks, 0);
}

TEST(CheckedExchangeTest, RecoveryDisabledTurnsEscalationIntoThrow) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  corruption.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kTruncate);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  options.policy = RecoveryPolicy::kNone;
  EXPECT_THROW(comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options),
               FaultedExchangeError);
}

// --- Miniature chaos sweep ---------------------------------------------

TEST(ChaosTest, NoSilentCorruptionAcrossSeeds) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Torus torus(shape);
  const auto send = make_send(16);
  int escalated = 0, corrected = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull);
    CorruptionModel corruption;
    const std::int64_t until =
        (rng.next() & 1u) != 0 ? static_cast<std::int64_t>(1 + rng.next_below(3)) : kFaultForever;
    corruption.inject_random_corruptions(torus, rng.next(), 1 + static_cast<int>(seed % 2), 0,
                                         until);
    FaultModel faults;
    if (seed % 3 == 0) faults.inject_random_channel_faults(torus, rng.next(), 1);
    ExchangeOutcome outcome;
    ResilienceOptions options;
    options.algorithm = AlltoallAlgorithm::kSuhShin;
    std::vector<std::vector<std::int64_t>> recv;
    try {
      recv = comm.alltoall_checked(send, faults, corruption, outcome, options);
    } catch (const std::exception&) {
      continue;  // loud, attributed refusal — not silent corruption
    }
    expect_aape_permutation(send, recv);
    if (outcome.integrity == IntegrityStatus::kEscalated) ++escalated;
    if (outcome.integrity == IntegrityStatus::kCorrected) ++corrected;
  }
  // The sweep must actually exercise both repair paths.
  EXPECT_GT(escalated + corrected, 0);
}

}  // namespace
}  // namespace torex
