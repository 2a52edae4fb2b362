// Crash durability: the write-ahead exchange journal, delta resume, and
// the heartbeat failure detector. The invariants under test are the
// exactly-once guarantees — a resumed exchange delivers the same
// permutation as an uninterrupted one with zero lost and zero duplicated
// parcels, re-sending strictly less than a full restart whenever any
// step committed — and the wire format's damage semantics: a torn final
// record loads (and is dropped), any earlier damage refuses to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/recovery.hpp"
#include "runtime/watchdog.hpp"
#include "sim/fault_model.hpp"
#include "topology/torus.hpp"

namespace torex {
namespace {

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    for (Rank q = 0; q < n; ++q) row.push_back(static_cast<std::int64_t>(p) * n + q);
  }
  return send;
}

// The all-to-all oracle: recv[p][q] == send[q][p].
void expect_transposed(const std::vector<std::vector<std::int64_t>>& recv, Rank n) {
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      ASSERT_EQ(recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)],
                static_cast<std::int64_t>(q) * n + p)
          << "parcel " << q << " -> " << p << " lost or mangled";
    }
  }
}

// Every active (1-based) (phase, step) pair of a schedule, in order.
std::vector<std::pair<int, int>> active_steps(const SuhShinAape& algo) {
  std::vector<std::pair<int, int>> out;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) out.emplace_back(phase, step);
  }
  return out;
}

// --- DeliveryBitmap ----------------------------------------------------

TEST(DeliveryBitmapTest, MarksAreIdempotentAndCounted) {
  DeliveryBitmap bitmap(4);
  EXPECT_EQ(bitmap.delivered(), 0);
  EXPECT_EQ(bitmap.expected(), 16);
  EXPECT_FALSE(bitmap.test(2, 3));
  EXPECT_TRUE(bitmap.mark(2, 3));
  EXPECT_TRUE(bitmap.test(2, 3));
  EXPECT_FALSE(bitmap.mark(2, 3));  // re-mark is not a new delivery
  EXPECT_EQ(bitmap.delivered(), 1);
  EXPECT_EQ(bitmap.delivered_to(2), 1);
  EXPECT_EQ(bitmap.delivered_to(3), 0);
  EXPECT_FALSE(bitmap.complete());
}

TEST(DeliveryBitmapTest, CompleteMeansEveryPair) {
  const Rank n = 5;
  DeliveryBitmap bitmap(n);
  for (Rank d = 0; d < n; ++d) {
    for (Rank o = 0; o < n; ++o) bitmap.mark(d, o);
  }
  EXPECT_TRUE(bitmap.complete());
  EXPECT_EQ(bitmap.delivered(), bitmap.expected());
}

// --- Journal write path ------------------------------------------------

TEST(JournalTest, FreshJournalPreMarksSelfDeliveries) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  EXPECT_TRUE(journal.bound());
  EXPECT_TRUE(journal.fresh());
  EXPECT_EQ(journal.delivered_parcels(), 16);  // the p -> p diagonal
  for (Rank p = 0; p < 16; ++p) EXPECT_TRUE(journal.delivered().test(p, p));
  EXPECT_FALSE(journal.exchange_complete());
}

TEST(JournalTest, UnboundJournalRefusesMutation) {
  ExchangeJournal journal;
  EXPECT_FALSE(journal.bound());
  EXPECT_THROW(journal.record_deliveries(0, {{0, 1}}), std::invalid_argument);
  EXPECT_THROW(journal.commit_step(0), std::invalid_argument);
  EXPECT_THROW(journal.commit_phase(1), std::invalid_argument);
}

TEST(JournalTest, WriterInvariantsAreEnforced) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  EXPECT_THROW(journal.record_deliveries(0, {}), std::invalid_argument);
  EXPECT_THROW(journal.record_deliveries(0, {{1, 1}}), std::invalid_argument);  // self pair
  EXPECT_THROW(journal.record_deliveries(0, {{16, 0}}), std::invalid_argument);
  EXPECT_THROW(journal.record_deliveries(5, {{0, 1}}), std::invalid_argument);  // past sentinel
  journal.record_deliveries(0, {{0, 1}});
  EXPECT_THROW(journal.record_deliveries(0, {{0, 1}}), std::logic_error);  // exactly-once
  EXPECT_THROW(journal.commit_step(1), std::invalid_argument);  // out of order
  journal.commit_step(0);
  EXPECT_EQ(journal.committed_steps(), 1);
  EXPECT_THROW(journal.commit_phase(2), std::invalid_argument);  // skips phase 1
  journal.commit_phase(1);
  EXPECT_EQ(journal.committed_phase(), 1);
}

TEST(JournalTest, UncommittedDeliveriesAreTheFlushedSuffix) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}, {3, 2}});
  const auto uncommitted = journal.uncommitted_deliveries();
  ASSERT_EQ(uncommitted.size(), 2u);
  EXPECT_EQ(uncommitted[0], (std::pair<Rank, Rank>{2, 3}));
  EXPECT_EQ(uncommitted[1], (std::pair<Rank, Rank>{3, 2}));
}

// --- Wire format -------------------------------------------------------

TEST(JournalWireTest, RoundTripPreservesEverything) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}, {1, 0}});
  journal.commit_step(0);
  journal.commit_phase(1);
  journal.commit_phase(2);

  const ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_EQ(loaded.extents(), journal.extents());
  EXPECT_EQ(loaded.num_phases(), 4);
  EXPECT_EQ(loaded.total_steps(), 4);
  EXPECT_EQ(loaded.records(), journal.records());
  EXPECT_EQ(loaded.committed_steps(), 1);
  EXPECT_EQ(loaded.committed_phase(), 2);
  EXPECT_EQ(loaded.delivered_parcels(), journal.delivered_parcels());
  EXPECT_TRUE(loaded.delivered().test(0, 1));
  EXPECT_TRUE(loaded.delivered().test(1, 0));
  EXPECT_FALSE(loaded.torn_tail());
  EXPECT_EQ(loaded.encode(), journal.encode());  // byte-identical re-encode
}

TEST(JournalWireTest, TornFinalRecordIsDroppedNotFatal) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}});  // this record will be torn

  for (std::size_t cut = 1; cut <= 7; ++cut) {
    std::vector<std::byte> bytes = journal.encode();
    bytes.resize(bytes.size() - cut);
    const ExchangeJournal loaded = ExchangeJournal::decode(bytes);
    EXPECT_TRUE(loaded.torn_tail());
    EXPECT_EQ(loaded.committed_steps(), 1);
    EXPECT_TRUE(loaded.delivered().test(0, 1));
    EXPECT_FALSE(loaded.delivered().test(2, 3)) << "torn record must not count";
  }
}

TEST(JournalWireTest, MidStreamDamageIsFatal) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}});

  // Flip one byte inside the *first* record's payload: damage with
  // intact records after it cannot be a torn tail.
  std::vector<std::byte> bytes = journal.encode();
  const std::size_t header_size = (3 + 2 + 2 + 1) * 4;  // magic..crc with 2 extents
  bytes[header_size + 9] ^= std::byte{0x40};
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, HeaderDamageIsFatal) {
  const TorusShape shape({4, 4});
  const ExchangeJournal journal(shape, 4, 4);
  std::vector<std::byte> bytes = journal.encode();
  bytes[0] ^= std::byte{0x01};  // magic
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[4] ^= std::byte{0x02};  // version
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[bytes.size() - 1] ^= std::byte{0x04};  // header CRC itself
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, ForgedDuplicateDeliveryIsRejected) {
  // Two records claiming the same (dest, origin) cannot both be real;
  // decode must refuse rather than double-count.
  const TorusShape shape({4, 4});
  ExchangeJournal honest(shape, 4, 4);
  honest.record_deliveries(0, {{0, 1}});
  std::vector<std::byte> bytes = honest.encode();
  // Append a byte-identical copy of the first record.
  const std::size_t header_size = (3 + 2 + 2 + 1) * 4;
  const std::vector<std::byte> record(bytes.begin() + static_cast<std::ptrdiff_t>(header_size),
                                      bytes.end());
  bytes.insert(bytes.end(), record.begin(), record.end());
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, FileRoundTrip) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);

  const std::string path = ::testing::TempDir() + "journal_roundtrip.toxj";
  journal.save_file(path);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), journal.encode());
  std::remove(path.c_str());
}

TEST(JournalFileSinkTest, IncrementalSyncMatchesFullSave) {
  // The sink appends only the bytes recorded since its last sync (the
  // journal's encoding is append-only), so a long run pays O(new
  // records) per flush instead of rewriting the whole file — and the
  // final file must still be byte-identical to a full save.
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  const std::string path = ::testing::TempDir() + "journal_sink.toxj";
  JournalFileSink sink(path);
  sink.sync(journal);  // first sync rewrites (header only)
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  sink.sync(journal);  // appends the new records
  journal.record_deliveries(1, {{1, 2}});
  journal.commit_step(1);
  sink.sync(journal);
  sink.sync(journal);  // no new bytes: a no-op
  EXPECT_EQ(sink.rewrites(), 1);
  EXPECT_EQ(sink.appends(), 2);
  EXPECT_GT(sink.bytes_written(), 0);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), journal.encode());
  std::remove(path.c_str());
}

TEST(JournalFileSinkTest, ShorterJournalForcesRewrite) {
  // A sink re-pointed at a fresh (shorter) journal — the restart case —
  // must rewrite from scratch, never append onto stale bytes.
  const TorusShape shape({4, 4});
  const std::string path = ::testing::TempDir() + "journal_sink_rewrite.toxj";
  JournalFileSink sink(path);
  ExchangeJournal big(shape, 4, 4);
  big.record_deliveries(0, {{0, 1}});
  big.commit_step(0);
  sink.sync(big);
  const ExchangeJournal fresh(shape, 4, 4);
  sink.sync(fresh);
  EXPECT_EQ(sink.rewrites(), 2);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), fresh.encode());
  std::remove(path.c_str());
}

// --- Crash and resume, scheduled path ----------------------------------

TEST(ResumeTest, KillAtEveryStepThenResumeIsExactlyOnce) {
  // The heart of the PR: die at every active step of the 4x4 schedule
  // (before and after the flush), resume from the journal, and demand
  // the exact permutation plus strictly fewer parcels re-sent than a
  // full restart whenever at least one step had committed.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();
  const auto send = make_send(n);

  // Pin the scheduled algorithm: kAuto may plan the direct journaled
  // path, which has no schedule steps for the crash point to hit.
  ResumeOptions scheduled;
  scheduled.resilience.algorithm = AlltoallAlgorithm::kSuhShin;

  std::int64_t full_sent = 0;
  {
    ExchangeJournal journal;
    ExchangeOutcome outcome;
    const auto recv = comm.alltoall_resumable(send, FaultModel{}, journal, outcome, scheduled);
    expect_transposed(recv, n);
    ASSERT_TRUE(outcome.resume.has_value());
    full_sent = outcome.resume->sent_parcels;
    EXPECT_TRUE(journal.exchange_complete());
  }

  for (const auto& [phase, step] : active_steps(algo)) {
    for (const bool after_flush : {false, true}) {
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      ResumeOptions options = scheduled;
      options.crash = CrashPoint{phase, step, after_flush};
      EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
                   ExchangeCrashError)
          << "crash point (" << phase << ", " << step << ") never fired";

      // Durability round-trip, as a real restart would see it.
      ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
      const std::int64_t committed = loaded.committed_steps();

      ExchangeOutcome resumed;
      const auto recv = comm.alltoall_resumable(send, FaultModel{}, loaded, resumed, scheduled);
      expect_transposed(recv, n);
      ASSERT_TRUE(resumed.resume.has_value());
      const ResumeReport& report = *resumed.resume;
      EXPECT_TRUE(loaded.exchange_complete());
      if (committed > 0) {
        EXPECT_LT(report.sent_parcels, full_sent)
            << "resume after (" << phase << ", " << step << ") must beat a full restart";
        EXPECT_TRUE(report.resumed);
      } else {
        EXPECT_EQ(report.sent_parcels, full_sent);
      }
      if (after_flush && committed < algo.total_steps()) {
        // The killed step flushed its deliveries but never committed:
        // those parcels are materialized and their seed copies arrive
        // again as counted, dropped duplicates.
        EXPECT_GT(report.materialized, 0);
        EXPECT_EQ(report.duplicates_dropped, report.materialized);
      }
    }
  }
}

TEST(ResumeTest, ResumingACompleteJournalSendsNothing) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();
  const auto send = make_send(n);

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  expect_transposed(comm.alltoall_resumable(send, FaultModel{}, journal, outcome), n);

  ExchangeOutcome again;
  const auto recv = comm.resume(send, FaultModel{}, journal, again);
  expect_transposed(recv, n);
  ASSERT_TRUE(again.resume.has_value());
  EXPECT_EQ(again.resume->sent_parcels, 0);
  EXPECT_EQ(again.resume->replayed_parcels, 0);
  EXPECT_EQ(again.resume->journal_flushes, 0);
}

TEST(ResumeTest, ResumeRefusesFreshJournalsAndForeignShapes) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  ExchangeOutcome outcome;

  ExchangeJournal unbound;
  EXPECT_THROW(comm.resume(send, FaultModel{}, unbound, outcome), std::invalid_argument);

  ExchangeJournal fresh(TorusShape({4, 4}), 4, 4);
  EXPECT_THROW(comm.resume(send, FaultModel{}, fresh, outcome), std::invalid_argument);

  // Bound to a different torus: the delta is meaningless there.
  ExchangeJournal foreign(TorusShape({8, 4}), 4, 6);
  foreign.record_deliveries(0, {{0, 1}});
  EXPECT_THROW(comm.resume(send, FaultModel{}, foreign, outcome), std::invalid_argument);
}

TEST(ResumeTest, DirectDeltaJournalResumesOnTheSchedule) {
  // A degraded (direct) delta journals against the same geometry with
  // only final commits; a later *scheduled* resume must still honor its
  // bitmap. Kill the direct delta mid-way via cooperative cancel, then
  // finish on the scheduled path.
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();

  const auto send = make_send(n);
  ParcelBuffers<std::int64_t> parcels(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      parcels[static_cast<std::size_t>(p)].push_back(
          {Block{p, q}, send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]});
    }
  }
  ExchangeJournal journal(shape, algo.num_phases(), algo.total_steps());
  std::atomic<bool> cancel{false};
  JournalRunOptions options;
  options.cancel = &cancel;
  int flushes = 0;
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 8) cancel.store(true);  // half the origins delivered
  };
  ResumeReport report;
  try {
    exchange_payloads_direct_journaled(algo, std::move(parcels), journal, options, report);
    FAIL() << "the cancel must abort the direct delta";
  } catch (const ExchangeCancelledError& e) {
    // The direct delta has no steps: the diagnostic names the origin
    // whose flush tripped the cancel, never a rank labelled as a step.
    const std::string what = e.what();
    EXPECT_NE(what.find("direct delta"), std::string::npos) << what;
    EXPECT_NE(what.find("origin 7 of 16"), std::string::npos) << what;
    EXPECT_EQ(what.find("step"), std::string::npos) << what;
  }
  EXPECT_GT(journal.delivered_parcels(), 16);  // more than the self diagonal
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_EQ(journal.committed_steps(), 0);  // direct mode commits only at the end

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  const TorusCommunicator comm(shape, CostParams{});
  ExchangeOutcome outcome;
  ResumeOptions resume_options;
  resume_options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.resume(make_send(n), FaultModel{}, loaded, outcome, resume_options);
  expect_transposed(recv, n);
  ASSERT_TRUE(outcome.resume.has_value());
  EXPECT_GT(outcome.resume->materialized, 0);
  EXPECT_EQ(outcome.resume->materialized, outcome.resume->duplicates_dropped);
  EXPECT_TRUE(loaded.exchange_complete());
}

TEST(ResumeTest, DirectDeltaBindsAndChecksItsJournal) {
  // The direct delta opens its run through the same prologue as the
  // scheduled one: an unbound journal is bound to the schedule, a
  // foreign one is refused, and so is a seed that is not canonical.
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();
  const auto seed = [&] {
    ParcelBuffers<std::int64_t> parcels(static_cast<std::size_t>(n));
    for (Rank p = 0; p < n; ++p) {
      for (Rank q = 0; q < n; ++q) {
        parcels[static_cast<std::size_t>(p)].push_back({Block{p, q}, std::int64_t{p} * n + q});
      }
    }
    return parcels;
  };

  ExchangeJournal unbound;
  ResumeReport report;
  const auto out = exchange_payloads_direct_journaled(algo, seed(), unbound, {}, report);
  EXPECT_TRUE(unbound.bound());
  EXPECT_EQ(unbound.extents(), shape.extents());
  EXPECT_TRUE(unbound.exchange_complete());
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.sent_parcels, std::int64_t{n} * (n - 1));
  for (Rank q = 0; q < n; ++q) {
    ASSERT_EQ(out[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(n));
    for (const auto& parcel : out[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.block.dest, q);
      EXPECT_EQ(parcel.payload, std::int64_t{parcel.block.origin} * n + q);
    }
  }

  ExchangeJournal foreign(TorusShape({8, 4}), 4, 6);
  EXPECT_THROW(exchange_payloads_direct_journaled(algo, seed(), foreign, {}, report),
               std::invalid_argument);

  auto short_seed = seed();
  short_seed[3].pop_back();
  ExchangeJournal fresh;
  EXPECT_THROW(exchange_payloads_direct_journaled(algo, std::move(short_seed), fresh, {}, report),
               std::invalid_argument);
}

// --- Option validation (construction-time rejection) -------------------

TEST(ValidationTest, BackoffConfigRejectsNonsense) {
  BackoffConfig good;
  EXPECT_NO_THROW(good.validate());

  BackoffConfig zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_THROW(zero_attempts.validate(), std::invalid_argument);

  BackoffConfig negative_base;
  negative_base.base_ticks = 0;
  EXPECT_THROW(negative_base.validate(), std::invalid_argument);

  BackoffConfig inverted;
  inverted.base_ticks = 16;
  inverted.max_ticks = 8;
  EXPECT_THROW(inverted.validate(), std::invalid_argument);
}

TEST(ValidationTest, FailureDetectorOptionsRejectNonsense) {
  FailureDetectorOptions good;
  EXPECT_NO_THROW(good.validate());

  FailureDetectorOptions zero_interval;
  zero_interval.heartbeat_interval = 0;
  EXPECT_THROW(zero_interval.validate(), std::invalid_argument);

  FailureDetectorOptions bad_phi;
  bad_phi.phi_threshold = 0.0;
  EXPECT_THROW(bad_phi.validate(), std::invalid_argument);

  FailureDetectorOptions empty_window;
  empty_window.window = 0;
  EXPECT_THROW(empty_window.validate(), std::invalid_argument);
}

TEST(ValidationTest, ResumeOptionsValidateTheWholeChain) {
  ResumeOptions options;
  EXPECT_NO_THROW(options.validate());

  ResumeOptions bad_backoff;
  bad_backoff.resilience.backoff.max_attempts = 0;
  EXPECT_THROW(bad_backoff.validate(), std::invalid_argument);

  ResumeOptions bad_deadline;
  bad_deadline.stall_deadline_ticks = 0;
  EXPECT_THROW(bad_deadline.validate(), std::invalid_argument);

  ResumeOptions bad_crash;
  bad_crash.crash = CrashPoint{1, 0, true};
  EXPECT_THROW(bad_crash.validate(), std::invalid_argument);
}

// --- Heartbeat failure detector ----------------------------------------

TEST(FailureDetectorTest, PhiAccruesWithSilence) {
  HeartbeatFailureDetector detector(4, FailureDetectorOptions{});
  EXPECT_EQ(detector.phi(0, 100), 0.0);  // no history: trusted
  for (std::int64_t t = 0; t <= 10; ++t) detector.heartbeat(0, t);
  EXPECT_EQ(detector.phi(0, 10), 0.0);
  const double early = detector.phi(0, 12);
  const double late = detector.phi(0, 30);
  EXPECT_GT(early, 0.0);
  EXPECT_GT(late, early);
  EXPECT_FALSE(detector.suspect(0, 12));
  EXPECT_TRUE(detector.suspect(0, 30));
}

TEST(FailureDetectorTest, NonMonotonicSamplesDropAndCount) {
  // Regression: an out-of-order or duplicate heartbeat must be dropped
  // and counted, not folded into the window. A late replay used to be
  // a hard error; worse alternatives would push a zero or negative gap
  // into the ring and collapse the mean (fabricating suspicion) or
  // advance last_arrival backwards (masking real silence).
  HeartbeatFailureDetector detector(2, FailureDetectorOptions{});
  for (std::int64_t t = 0; t <= 10; ++t) EXPECT_TRUE(detector.heartbeat(0, t));
  const double phi_before = detector.phi(0, 14);
  const std::int64_t suspicion_before = detector.suspicion_tick(0);

  EXPECT_FALSE(detector.heartbeat(0, 5));   // out of order
  EXPECT_FALSE(detector.heartbeat(0, 10));  // duplicate of the last tick
  EXPECT_EQ(detector.dropped_samples(), 2);

  // phi is untouched: the stale samples neither skewed the mean nor
  // rewound the silence measurement.
  EXPECT_EQ(detector.phi(0, 14), phi_before);
  EXPECT_EQ(detector.suspicion_tick(0), suspicion_before);

  // A fresh in-order beat is still accepted afterwards.
  EXPECT_TRUE(detector.heartbeat(0, 11));
  EXPECT_EQ(detector.dropped_samples(), 2);

  // Other nodes are unaffected by node 0's replays.
  EXPECT_TRUE(detector.heartbeat(1, 3));
  EXPECT_FALSE(detector.heartbeat(1, 3));
  EXPECT_EQ(detector.dropped_samples(), 3);
}

TEST(FailureDetectorTest, SuspicionTickMatchesThreshold) {
  // With unit heartbeats, phi = silence / ln(10): the closed-form
  // suspicion tick is the first tick where phi crosses the threshold.
  HeartbeatFailureDetector detector(2, FailureDetectorOptions{});
  for (std::int64_t t = 0; t <= 4; ++t) detector.heartbeat(1, t);
  const std::int64_t predicted = detector.suspicion_tick(1);
  EXPECT_FALSE(detector.suspect(1, predicted - 1));
  EXPECT_TRUE(detector.suspect(1, predicted));
}

TEST(FailureDetectorTest, WarmupSeedsStopEarlyGapCollapse) {
  // Regression: with an empty window, the first one or two observed
  // gaps *are* the estimate. A node whose first beats arrived
  // atypically close (a scheduling hiccup, not a fast cadence) had its
  // mean collapse to that tiny gap and was suspected a few dozen ticks
  // later despite beating on schedule. The warm-up seeds pin the early
  // mean near the configured cadence until real samples displace them.
  FailureDetectorOptions options;
  options.heartbeat_interval = 4;
  HeartbeatFailureDetector seeded(1, options);
  seeded.heartbeat(0, 0);
  seeded.heartbeat(0, 2);  // one atypically quick early gap
  // Unseeded, the mean is 2 and suspicion lands near tick 39; seeded
  // (8 samples of 4 plus the observed 2) it lands past tick 70.
  EXPECT_FALSE(seeded.suspect(0, 45));
  EXPECT_GT(seeded.suspicion_tick(0), 70);
  EXPECT_TRUE(seeded.suspect(0, 100));

  FailureDetectorOptions legacy = options;
  legacy.warmup_samples = 0;
  HeartbeatFailureDetector unseeded(1, legacy);
  unseeded.heartbeat(0, 0);
  unseeded.heartbeat(0, 2);
  EXPECT_TRUE(unseeded.suspect(0, 45)) << "warmup_samples=0 must restore the legacy estimate";

  FailureDetectorOptions bad = options;
  bad.warmup_samples = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FailureDetectorTest, WarmupSeedsAgeOutOfTheWindow) {
  // The seeds are a prior, not a bias: once the ring fills with real
  // gaps and wraps, the estimate is driven by observed cadence alone.
  FailureDetectorOptions options;
  options.heartbeat_interval = 4;
  options.window = 8;
  options.warmup_samples = 8;
  HeartbeatFailureDetector detector(1, options);
  // A node that actually beats every 2 ticks: after enough beats the
  // seeds (all 4s) are overwritten and the mean settles at 2.
  for (std::int64_t t = 0; t <= 40; t += 2) detector.heartbeat(0, t);
  // suspicion_tick = last + ceil(threshold * mean * ln 10); mean 2
  // gives 40 + 37 = 77, mean 4 would give 40 + 74 = 114.
  EXPECT_LT(detector.suspicion_tick(0), 85);
  EXPECT_TRUE(detector.suspect(0, 85));
}

TEST(FailureDetectorTest, ObserveHeartbeatsSuspectsCrashedNodes) {
  const TorusShape shape({4, 4});
  const Torus torus(shape);
  FaultModel faults;
  faults.crash_node(3, /*crash_tick=*/8);
  ASSERT_EQ(faults.crashes().size(), 1u);
  EXPECT_FALSE(faults.crashes().front().rejoins());

  HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
  const auto suspicions = detector.observe_heartbeats(faults, /*up_to_tick=*/64);
  ASSERT_EQ(suspicions.size(), 1u);
  EXPECT_EQ(suspicions.front().node, 3);
  EXPECT_GT(suspicions.front().suspected_at, 8);
  EXPECT_LT(suspicions.front().suspected_at, 64);
  EXPECT_GE(suspicions.front().phi, 8.0);
  // Healthy nodes stay trusted the whole horizon.
  EXPECT_EQ(detector.suspects(64), std::vector<Rank>{3});
}

TEST(FailureDetectorTest, RejoiningNodeIsUnsuspected) {
  const TorusShape shape({4, 4});
  FaultModel faults;
  faults.crash_node(5, /*crash_tick=*/4, /*rejoin_tick=*/40);
  EXPECT_TRUE(faults.crashes().front().rejoins());

  HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
  const auto suspicions = detector.observe_heartbeats(faults, /*up_to_tick=*/64);
  ASSERT_EQ(suspicions.size(), 1u);  // suspected once, during the outage
  EXPECT_EQ(suspicions.front().node, 5);
  // After rejoining and beating again, the node is trusted once more.
  EXPECT_TRUE(detector.suspects(64).empty());
}

TEST(FailureDetectorTest, CrashSweepAcrossEveryNode) {
  // Determinism sweep: whichever single node crashes, the detector
  // names exactly that node within the horizon.
  const TorusShape shape({4, 4});
  for (Rank victim = 0; victim < shape.num_nodes(); ++victim) {
    FaultModel faults;
    faults.crash_node(victim, 6);
    HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
    const auto suspicions = detector.observe_heartbeats(faults, 64);
    ASSERT_EQ(suspicions.size(), 1u) << "victim " << victim;
    EXPECT_EQ(suspicions.front().node, victim);
  }
}

// --- Detector-driven proactive recovery --------------------------------

TEST(ProactiveRecoveryTest, SuspicionPrecedesRecoveryInTheTrace) {
  // The acceptance criterion: in an exported event stream the
  // fd.suspect span must come strictly before the recovery.attempt
  // span it triggered.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();

  FaultModel faults;
  faults.crash_node(2, /*crash_tick=*/4);

  Recorder recorder;
  ResumeOptions options;
  options.resilience.obs = &recorder;
  ExchangeJournal journal;
  ExchangeOutcome outcome;
  const auto recv = comm.alltoall_resumable(make_send(n), faults, journal, outcome, options);
  expect_transposed(recv, n);

  EXPECT_EQ(outcome.suspected_nodes, 1);
  EXPECT_GT(outcome.suspicion_tick, 0);
  EXPECT_TRUE(outcome.proactive_recovery)
      << "suspicion at tick " << outcome.suspicion_tick << " missed the deadline";

  const Telemetry telemetry = recorder.snapshot();
  std::int64_t first_suspect = -1, first_attempt = -1;
  for (const auto& event : telemetry.events) {
    if (event.kind != EventKind::kBegin) continue;
    if (first_suspect < 0 && event.name == "fd.suspect") first_suspect = event.ts_ns;
    if (first_attempt < 0 && event.name == "recovery.attempt") first_attempt = event.ts_ns;
  }
  ASSERT_GE(first_suspect, 0) << "no fd.suspect span recorded";
  ASSERT_GE(first_attempt, 0) << "no recovery.attempt span recorded";
  EXPECT_LE(first_suspect, first_attempt)
      << "the failure detector must fire before recovery planning";
}

TEST(ProactiveRecoveryTest, CrashedNodeStillGetsItsParcelsJournaled) {
  // With a node dead from tick 0 the planner degrades; the journaled
  // direct delta must still complete the permutation exactly once and
  // leave a complete journal behind.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();

  FaultModel faults;
  faults.crash_node(7, /*crash_tick=*/2);

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  const auto recv = comm.alltoall_resumable(make_send(n), faults, journal, outcome);
  expect_transposed(recv, n);
  EXPECT_TRUE(journal.exchange_complete());
  ASSERT_TRUE(outcome.resume.has_value());
  EXPECT_EQ(outcome.resume->duplicates_dropped, 0);
}

}  // namespace
}  // namespace torex
