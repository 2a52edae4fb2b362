// Cross-executor differential tests: the independent executors
// (sequential engine, layout engine, parallel engine, and every payload
// entry point — plain, pooled, sealed, journaled, and the per-phase
// session stepper) replay the same schedule oracle; on random workloads
// and shapes their observable results must agree. A bug in any one of
// them — or in the oracle — shows up as a divergence here even if each
// executor's own checks pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "case_names.hpp"
#include "core/data_array.hpp"
#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "obs/recorder.hpp"
#include "runtime/journal.hpp"
#include "runtime/parallel_engine.hpp"
#include "svc/session_exchange.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

struct DiffCase {
  std::vector<std::int32_t> extents;
  std::uint64_t seed;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << test::extents_name(c.extents) << "_seed" << c.seed;
}

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialTest, CustomWorkloadMatchesParcelRunner) {
  // Same random sparse workload through ExchangeEngine::run_custom and
  // exchange_parcels_custom: identical delivered multisets.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  SplitMix64 rng(GetParam().seed);

  std::vector<std::vector<Block>> blocks(static_cast<std::size_t>(N));
  ParcelBuffers<std::uint64_t> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    const int count = static_cast<int>(rng.next_below(7));
    for (int i = 0; i < count; ++i) {
      const Rank d = static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(N)));
      blocks[static_cast<std::size_t>(p)].push_back(Block{p, d});
      parcels[static_cast<std::size_t>(p)].push_back(
          {Block{p, d}, rng.next()});
    }
  }

  ExchangeEngine engine(algo);
  engine.run_custom(blocks);
  const auto& engine_buffers = engine.buffers();
  const auto delivered = exchange_parcels_custom(algo, std::move(parcels));

  for (Rank q = 0; q < N; ++q) {
    std::vector<Block> a = engine_buffers[static_cast<std::size_t>(q)];
    std::vector<Block> b;
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      b.push_back(parcel.block);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "node " << q;
  }
}

TEST_P(DifferentialTest, LayoutEngineAgreesWithTraceCounts) {
  // The layout engine's send events must number the same as the plain
  // engine's transfers, step for step in aggregate.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  std::int64_t engine_sends = 0;
  for (const auto& step : trace.steps) {
    engine_sends += static_cast<std::int64_t>(step.transfers.size());
  }
  const LayoutStats layout = run_layout_simulation(algo);
  EXPECT_EQ(layout.total_sends, engine_sends);
  EXPECT_EQ(layout.rearrangement_passes, algo.num_dims() + 1);
}

TEST_P(DifferentialTest, ParallelEngineAgreesOnRandomThreadCounts) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  SplitMix64 rng(GetParam().seed ^ 0xABCDEF);
  const int threads = 1 + static_cast<int>(rng.next_below(8));

  EngineOptions opts;
  opts.record_transfers = false;
  ExchangeEngine sequential(algo, opts);
  const ExchangeTrace seq = sequential.run_verified();

  ParallelOptions popts;
  popts.num_threads = threads;
  ParallelExchange parallel(algo, popts);
  const ExchangeTrace par = parallel.run_verified();

  ASSERT_EQ(seq.steps.size(), par.steps.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < seq.steps.size(); ++i) {
    EXPECT_EQ(seq.steps[i].total_blocks, par.steps[i].total_blocks);
    EXPECT_EQ(seq.steps[i].max_blocks_per_node, par.steps[i].max_blocks_per_node);
  }
}

// --- Payload entry points against the block-level oracle ---------------

/// The block-level ExchangeEngine's delivered blocks for the canonical
/// workload, each node's list sorted.
std::vector<std::vector<Block>> oracle_blocks(const SuhShinAape& algo) {
  ExchangeEngine engine(algo);
  engine.run_verified();
  std::vector<std::vector<Block>> blocks = engine.buffers();
  for (auto& node : blocks) std::sort(node.begin(), node.end());
  return blocks;
}

/// The canonical workload: parcel (origin -> dest) carries
/// origin * N + dest, so every delivered payload names its block.
std::int64_t payload_of(Rank N, Rank origin, Rank dest) {
  return static_cast<std::int64_t>(origin) * N + dest;
}

Block block_of(Rank N, std::int64_t payload) {
  return Block{static_cast<Rank>(payload / N), static_cast<Rank>(payload % N)};
}

ParcelBuffers<std::int64_t> canonical_parcels(Rank N) {
  ParcelBuffers<std::int64_t> buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      buffers[static_cast<std::size_t>(p)].push_back({Block{p, q}, payload_of(N, p, q)});
    }
  }
  return buffers;
}

/// Asserts that delivered parcels form the oracle's per-node sorted
/// block multiset, read back from the payloads, and that every
/// parcel's identity agrees with its payload.
void expect_matches_oracle(const std::vector<std::vector<Block>>& oracle,
                           const ParcelBuffers<std::int64_t>& delivered,
                           const std::string& who) {
  const Rank N = static_cast<Rank>(oracle.size());
  ASSERT_EQ(delivered.size(), oracle.size()) << who;
  for (Rank q = 0; q < N; ++q) {
    std::vector<Block> blocks;
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      const Block b = block_of(N, parcel.payload);
      EXPECT_EQ(b, parcel.block) << who << " node " << q;
      blocks.push_back(b);
    }
    std::sort(blocks.begin(), blocks.end());
    EXPECT_EQ(blocks, oracle[static_cast<std::size_t>(q)]) << who << " node " << q;
  }
}

TEST_P(DifferentialTest, PlainPayloadsMatchOracle) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  expect_matches_oracle(oracle_blocks(algo), exchange_payloads(algo, canonical_parcels(N)),
                        "exchange_payloads");
}

TEST_P(DifferentialTest, PooledPayloadsMatchOracleOnBothLayouts) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const auto oracle = oracle_blocks(algo);
  for (const LayoutPolicy layout :
       {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
    WireExchangeOptions options;
    options.layout = layout;
    expect_matches_oracle(oracle, exchange_payloads_pooled(algo, canonical_parcels(N), options),
                          layout == LayoutPolicy::kPaper ? "pooled (paper)" : "pooled (naive)");
  }
}

TEST_P(DifferentialTest, PooledPayloadsFromShuffledSeedMatchOracle) {
  // The canonical workload with each node's parcels in shuffled order:
  // the phase-boundary rearrangement must not depend on the seed being
  // in destination order.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const auto oracle = oracle_blocks(algo);
  for (const LayoutPolicy layout :
       {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
    SplitMix64 rng(GetParam().seed);
    ParcelBuffers<std::int64_t> shuffled = canonical_parcels(N);
    for (auto& node : shuffled) deterministic_shuffle(node, rng);
    WireExchangeOptions options;
    options.layout = layout;
    expect_matches_oracle(oracle, exchange_payloads_pooled(algo, std::move(shuffled), options),
                          layout == LayoutPolicy::kPaper ? "pooled shuffled (paper)"
                                                         : "pooled shuffled (naive)");
  }
}

TEST_P(DifferentialTest, SealedPayloadsMatchOracleCleanAndTampered) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const auto oracle = oracle_blocks(algo);
  IntegrityReport clean;
  expect_matches_oracle(oracle,
                        exchange_payloads_sealed(algo, canonical_parcels(N), {}, {}, &clean),
                        "sealed (clean)");
  EXPECT_TRUE(clean.clean());
  // One-shot tamperer: the first transmission is damaged, refused, and
  // retransmitted; delivery must be unchanged.
  bool fired = false;
  const ParcelTamperer once = [&](const TransferContext&, std::vector<std::byte>& wire) {
    if (fired) return false;
    fired = true;
    wire[wire.size() / 2] ^= std::byte{0x40};
    return true;
  };
  IntegrityReport tampered;
  expect_matches_oracle(
      oracle, exchange_payloads_sealed(algo, canonical_parcels(N), once, {}, &tampered),
      "sealed (tampered)");
  EXPECT_EQ(tampered.corrupted, 1);
  EXPECT_EQ(tampered.retransmits, 1);
  EXPECT_EQ(tampered.messages, clean.messages);
  EXPECT_EQ(tampered.final_tick, clean.final_tick + 1);
}

TEST_P(DifferentialTest, SealedWireStatsIndependentOfExternalArena) {
  // The private and the caller's arena see the same traffic: the
  // published wire counters agree, and both equal the fresh external
  // arena's own stats.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  Recorder private_obs;
  exchange_payloads_sealed(algo, canonical_parcels(N), {}, {}, nullptr, &private_obs);
  Recorder external_obs;
  WireArena arena;
  IntegrityOptions options;
  options.arena = &arena;
  exchange_payloads_sealed(algo, canonical_parcels(N), {}, options, nullptr, &external_obs);
  const WirePoolStats& s = arena.stats();
  const std::map<std::string, std::int64_t> expected{
      {"wire.messages", s.messages},
      {"wire.parcels", s.parcels},
      {"wire.pool_hits", s.pool_hits},
      {"wire.pool_misses", s.pool_misses},
      {"wire.bytes_encoded", s.bytes_encoded},
      {"wire.bytes_copied", s.bytes_copied},
      {"wire.contiguous_sends", s.contiguous_sends},
      {"wire.gathered_parcels", s.gathered_parcels},
      {"wire.runs_encoded", s.runs_encoded}};
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(private_obs.metrics().counter(name).value(), value) << name;
    EXPECT_EQ(external_obs.metrics().counter(name).value(), value) << name;
  }
  EXPECT_GT(s.messages, 0);
  EXPECT_EQ(s.outstanding_frames(), 0);
}

TEST_P(DifferentialTest, JournaledPayloadsWithPrivateArenaMatchOracle) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  ExchangeJournal journal;
  JournalRunOptions options;  // wire == nullptr: the run leases from a private arena
  Recorder obs;
  options.obs = &obs;
  ResumeReport report;
  expect_matches_oracle(
      oracle_blocks(algo),
      exchange_payloads_journaled(algo, canonical_parcels(N), journal, options, report),
      "journaled");
  EXPECT_TRUE(journal.exchange_complete());
  EXPECT_EQ(report.replayed_parcels, 0);
  EXPECT_EQ(obs.metrics().counter("wire.parcels").value(), report.sent_parcels);
}

TEST_P(DifferentialTest, SessionExchangePhaseByPhaseMatchesOracle) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      send[static_cast<std::size_t>(p)].push_back(payload_of(N, p, q));
    }
  }
  WireArena arena;
  SessionExchange session(1, algo, send, arena, /*max_leased_frames=*/0);
  while (!session.complete()) {
    ASSERT_EQ(session.run_phase(nullptr, SessionInjection{}), PhaseOutcome::kComplete);
  }
  // take_result() indexes each node's payloads by origin: rebuild the
  // parcels from (origin, node), so a payload landing in the wrong slot
  // disagrees with its identity.
  const auto recv = session.take_result();
  ParcelBuffers<std::int64_t> delivered(static_cast<std::size_t>(N));
  for (Rank q = 0; q < N; ++q) {
    const auto& row = recv[static_cast<std::size_t>(q)];
    for (Rank origin = 0; origin < static_cast<Rank>(row.size()); ++origin) {
      delivered[static_cast<std::size_t>(q)].push_back(
          {Block{origin, q}, row[static_cast<std::size_t>(origin)]});
    }
  }
  expect_matches_oracle(oracle_blocks(algo), delivered, "session");
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

TEST_P(DifferentialTest, JournaledAndSessionWriteIdenticalJournals) {
  // The two executors that append frames at the receiver's buffer end
  // share one stepper and one write-ahead tail: on the same seeded
  // payloads, a fresh journaled run and a phase-by-phase session write
  // byte-identical journals, book identical wire traffic, and deliver
  // the same payloads.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  SplitMix64 rng(GetParam().seed);
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  ParcelBuffers<std::int64_t> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      const auto payload = static_cast<std::int64_t>(rng.next());
      send[static_cast<std::size_t>(p)].push_back(payload);
      parcels[static_cast<std::size_t>(p)].push_back({Block{p, q}, payload});
    }
  }

  WireArena journaled_arena;
  ExchangeJournal journal;
  JournalRunOptions options;
  options.wire = &journaled_arena;
  ResumeReport report;
  const auto delivered =
      exchange_payloads_journaled(algo, std::move(parcels), journal, options, report);

  WireArena session_arena;
  SessionExchange session(1, algo, send, session_arena, /*max_leased_frames=*/0);
  while (!session.complete()) {
    ASSERT_EQ(session.run_phase(nullptr, SessionInjection{}), PhaseOutcome::kComplete);
  }
  EXPECT_EQ(journal.encode(), session.journal().encode());
  const WirePoolStats& a = journaled_arena.stats();
  const WirePoolStats& b = session_arena.stats();
  EXPECT_GT(a.messages, 0);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.runs_encoded, b.runs_encoded);
  EXPECT_EQ(a.bytes_encoded, b.bytes_encoded);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(report.sent_parcels, session.sent_parcels());

  const auto recv = session.take_result();
  for (Rank q = 0; q < N; ++q) {
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(parcel.block.origin)],
                parcel.payload)
          << "node " << q << " origin " << parcel.block.origin;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, DifferentialTest,
                         ::testing::Values(DiffCase{{8, 8}, 1}, DiffCase{{8, 8}, 2},
                                           DiffCase{{12, 8}, 3}, DiffCase{{12, 12}, 4},
                                           DiffCase{{8, 8, 4}, 5}, DiffCase{{8, 4, 4}, 6},
                                           DiffCase{{16, 4}, 7},
                                           DiffCase{{4, 4, 4, 4}, 8}),
                         ::testing::PrintToStringParamName());

TEST(DifferentialTest, JournaledStringPayloadsTakeTheMovePathExactlyOnce) {
  // std::string parcels are not trivially copyable, so live journaled
  // steps move parcel structs instead of crossing the framed wire. A
  // fresh run must match the oracle; so must a run killed after a mid
  // step's flush and then resumed, with every materialized parcel's
  // seed copy arriving again as a dropped duplicate.
  for (const TorusShape& shape : {TorusShape::make_2d(8, 8), TorusShape({8, 4, 4})}) {
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const auto oracle = oracle_blocks(algo);
    // The payload spells the canonical number, padded past the small
    // string buffer so every move carries a heap allocation.
    const auto seed = [&] {
      ParcelBuffers<std::string> buffers(static_cast<std::size_t>(N));
      for (Rank p = 0; p < N; ++p) {
        for (Rank q = 0; q < N; ++q) {
          buffers[static_cast<std::size_t>(p)].push_back(
              {Block{p, q}, std::to_string(payload_of(N, p, q)) + std::string(32, '#')});
        }
      }
      return buffers;
    };
    const auto expect_oracle = [&](const ParcelBuffers<std::string>& delivered,
                                   const std::string& who) {
      ParcelBuffers<std::int64_t> numbers(delivered.size());
      for (std::size_t q = 0; q < delivered.size(); ++q) {
        for (const auto& parcel : delivered[q]) {
          numbers[q].push_back({parcel.block, std::stoll(parcel.payload)});
        }
      }
      expect_matches_oracle(oracle, numbers, shape.to_string() + " " + who);
    };

    ExchangeJournal fresh;
    ResumeReport report;
    expect_oracle(exchange_payloads_journaled(algo, seed(), fresh, JournalRunOptions{}, report),
                  "fresh");
    EXPECT_TRUE(fresh.exchange_complete());
    EXPECT_EQ(report.duplicates_dropped, 0);

    std::vector<std::pair<int, int>> active;
    for (int phase = 1; phase <= algo.num_phases(); ++phase) {
      for (int step = 1; step <= algo.steps_in_phase(phase); ++step) active.emplace_back(phase, step);
    }
    const auto [phase, step] = active[active.size() / 2];
    ExchangeJournal crashed;
    JournalRunOptions crash;
    crash.crash = CrashPoint{phase, step, /*after_flush=*/true};
    EXPECT_THROW(exchange_payloads_journaled(algo, seed(), crashed, crash, report),
                 ExchangeCrashError);
    ExchangeJournal loaded = ExchangeJournal::decode(crashed.encode());
    ResumeReport resumed;
    expect_oracle(exchange_payloads_journaled(algo, seed(), loaded, JournalRunOptions{}, resumed),
                  "resumed");
    EXPECT_TRUE(loaded.exchange_complete());
    EXPECT_TRUE(resumed.resumed);
    EXPECT_GT(resumed.materialized, 0) << shape.to_string() << " crash at (" << phase << ", "
                                       << step << ") flushed nothing";
    EXPECT_EQ(resumed.duplicates_dropped, resumed.materialized);
  }
}

TEST(DifferentialTest, CanonicalWorkloadAcrossAllExecutors) {
  // The full N^2 workload through every executor on one shape.
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  const Rank N = algo.shape().num_nodes();

  ExchangeEngine engine(algo);
  engine.run_verified();

  ParallelOptions popts;
  popts.num_threads = 3;
  ParallelExchange parallel(algo, popts);
  parallel.run_verified();

  ParcelBuffers<Rank> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      parcels[static_cast<std::size_t>(p)].push_back({Block{p, q}, p});
    }
  }
  const auto delivered = exchange_payloads(algo, std::move(parcels));

  const LayoutStats layout = run_layout_simulation(algo);
  EXPECT_TRUE(layout.fully_contiguous());  // 2D: §3.3 exact

  for (Rank q = 0; q < N; ++q) {
    auto a = engine.buffers()[static_cast<std::size_t>(q)];
    auto b = parallel.buffers()[static_cast<std::size_t>(q)];
    std::vector<Block> c;
    for (const auto& parcel : delivered[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.payload, parcel.block.origin);  // payload integrity
      c.push_back(parcel.block);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(c.begin(), c.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

}  // namespace
}  // namespace torex
