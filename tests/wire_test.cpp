// The zero-copy pooled wire path: WireArena recycling semantics,
// PooledFrame RAII, the TOX3 frame codec (single- and multi-run
// round-trips, run gather/erase primitives, scatter offsets,
// every-bit-flip and every-truncation detection, forged counts and
// run tables as typed errors, negative metadata), strided user-buffer
// views, the pooled layout-faithful executor (differential against the
// plain executor, §3.3 run accounting differential against the
// block-level layout simulator on both layouts, steady-state
// allocation behavior), the sealed executor, and a seeded
// deterministic fuzz harness over the codec — mutations must never
// decode and never read out of bounds (the ASan/UBSan CI job runs this
// suite under sanitizers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/data_array.hpp"
#include "core/payload_exchange.hpp"
#include "core/wire_buffer.hpp"
#include "obs/recorder.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

// --- WireArena ---------------------------------------------------------

TEST(WireArenaTest, RecyclesFrames) {
  WireArena arena;
  {
    PooledFrame f(arena, 64);
    EXPECT_TRUE(f.bound());
    EXPECT_EQ(arena.in_use(), 1);
    EXPECT_EQ(arena.stats().pool_misses, 1);
    EXPECT_EQ(arena.stats().pool_hits, 0);
  }
  EXPECT_EQ(arena.in_use(), 0);
  EXPECT_EQ(arena.pooled(), 1u);
  {
    PooledFrame f(arena, 32);
    EXPECT_EQ(arena.stats().pool_hits, 1);
    EXPECT_EQ(arena.stats().pool_misses, 1);
    EXPECT_EQ(arena.pooled(), 0u);
  }
  arena.trim();
  EXPECT_EQ(arena.pooled(), 0u);
  // Stats survive a trim.
  EXPECT_EQ(arena.stats().pool_hits, 1);
  EXPECT_EQ(arena.stats().acquires, 2);
}

TEST(WireArenaTest, HandsOutLargestPooledFrameFirst) {
  WireArena arena;
  std::vector<std::byte> small = arena.acquire(16);
  std::vector<std::byte> big = arena.acquire(4096);
  const std::size_t big_cap = big.capacity();
  arena.release(std::move(small));
  arena.release(std::move(big));
  const std::vector<std::byte> got = arena.acquire(0);
  EXPECT_GE(got.capacity(), big_cap);
}

TEST(WireArenaTest, UndersizedPooledFrameStillReused) {
  WireArena arena;
  arena.release(arena.acquire(8));
  const std::vector<std::byte> f = arena.acquire(std::size_t{1} << 16);
  EXPECT_EQ(arena.stats().pool_hits, 1);
  EXPECT_EQ(arena.stats().pool_misses, 1);
  EXPECT_EQ(arena.stats().undersized_hits, 1);
}

TEST(WireArenaTest, TracksPeakInUse) {
  WireArena arena;
  PooledFrame a(arena), b(arena), c(arena);
  c.reset();
  PooledFrame d(arena);
  EXPECT_EQ(arena.stats().peak_in_use, 3);
  EXPECT_EQ(arena.in_use(), 3);
}

TEST(PooledFrameTest, MoveTransfersOwnership) {
  WireArena arena;
  PooledFrame a(arena, 64);
  a.bytes().resize(10);
  PooledFrame b = std::move(a);
  EXPECT_FALSE(a.bound());
  EXPECT_TRUE(b.bound());
  EXPECT_EQ(b.bytes().size(), 10u);
  EXPECT_EQ(arena.in_use(), 1);
  b.reset();
  EXPECT_EQ(arena.in_use(), 0);
  EXPECT_EQ(arena.pooled(), 1u);
}

TEST(PooledFrameTest, DefaultConstructedIsUnboundAndRebindable) {
  PooledFrame f;
  EXPECT_FALSE(f.bound());
  WireArena arena;
  f.bind(arena, 128);
  EXPECT_TRUE(f.bound());
  f.reset();
  EXPECT_FALSE(f.bound());
  EXPECT_EQ(arena.pooled(), 1u);
}

// --- TOX3 frame codec -------------------------------------------------

std::vector<Parcel<std::int64_t>> make_parcels(Rank src, int count) {
  std::vector<Parcel<std::int64_t>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Block{src, static_cast<Rank>(i)}, src * 1000 + i});
  }
  return out;
}


/// A buffer with a known send set: parcels at indices {1,2} and {5,6}
/// of an 8-parcel buffer (two runs with gaps on both sides).
struct MultiRunFixture {
  std::vector<Parcel<std::int64_t>> buf;
  std::vector<detail::RunSpan> runs;
  std::size_t count = 0;

  MultiRunFixture() {
    buf = make_parcels(3, 8);
    count = detail::collect_send_runs(
        buf, [](const Parcel<std::int64_t>& p) { return p.block.dest == 1 || p.block.dest == 2 ||
                                                        p.block.dest == 5 || p.block.dest == 6; },
        runs);
  }
};

TEST(MultiRunFrameTest, CollectRunsFindsMaximalSpans) {
  MultiRunFixture fx;
  EXPECT_EQ(fx.count, 4u);
  ASSERT_EQ(fx.runs.size(), 2u);
  EXPECT_EQ(fx.runs[0].first, 1u);
  EXPECT_EQ(fx.runs[0].last, 3u);
  EXPECT_EQ(fx.runs[1].first, 5u);
  EXPECT_EQ(fx.runs[1].last, 7u);
}

TEST(MultiRunFrameTest, EraseRunsCompactsStably) {
  MultiRunFixture fx;
  detail::erase_runs(fx.buf, fx.runs);
  ASSERT_EQ(fx.buf.size(), 4u);
  EXPECT_EQ(fx.buf[0].block.dest, 0);
  EXPECT_EQ(fx.buf[1].block.dest, 3);
  EXPECT_EQ(fx.buf[2].block.dest, 4);
  EXPECT_EQ(fx.buf[3].block.dest, 7);
}

TEST(MultiRunFrameTest, MultiRunRoundTrips) {
  // Send sets over an 8-parcel buffer and the {dst_offset, count} runs
  // they must occupy: two runs with gaps on both sides, and a single
  // contiguous run (the §3.3 2D case, one memcpy per message).
  struct Input {
    std::vector<Rank> dests;
    std::vector<std::pair<std::uint64_t, std::size_t>> runs;
  };
  const std::vector<Input> inputs{{{1, 2, 5, 6}, {{0, 2}, {2, 2}}}, {{2, 3, 4}, {{0, 3}}}};
  for (const Input& input : inputs) {
    const auto buf = make_parcels(3, 8);
    std::vector<detail::RunSpan> runs;
    const std::size_t count = detail::collect_send_runs(
        buf,
        [&](const Parcel<std::int64_t>& p) {
          return std::find(input.dests.begin(), input.dests.end(), p.block.dest) !=
                 input.dests.end();
        },
        runs);
    ASSERT_EQ(count, input.dests.size());
    std::vector<std::byte> frame;
    encode_multi_run_frame(buf, runs, count, 2, 1, 3, 7, frame);
    SealedRunFrameView<std::int64_t> view;
    std::string reason;
    ASSERT_TRUE(
        decode_multi_run_frame<std::int64_t>(WireView(frame), 2, 1, 3, 7, 16, view, &reason))
        << reason;
    ASSERT_EQ(view.count(), count);
    ASSERT_EQ(view.run_count(), input.runs.size());
    // Payload order is send order (buffer order of the send set).
    for (std::size_t i = 0; i < view.count(); ++i) {
      EXPECT_EQ(view.parcel(i).block.dest, input.dests[i]);
      EXPECT_EQ(view.parcel(i).payload, 3000 + input.dests[i]);
    }
    // Run descriptors carry cumulative destination offsets.
    for (std::size_t r = 0; r < input.runs.size(); ++r) {
      EXPECT_EQ(view.run(r).dst_offset, input.runs[r].first);
      EXPECT_EQ(view.run(r).count, input.runs[r].second);
    }
    // append_to() scatters the send set contiguously after whatever
    // the destination already holds.
    std::vector<Parcel<std::int64_t>> out{buf[0]};
    view.append_to(out);
    ASSERT_EQ(out.size(), count + 1);
    EXPECT_EQ(out.front().block.dest, 0);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i + 1].block.dest, input.dests[i]);
    }
  }
}

TEST(MultiRunFrameTest, EmptyFrameRoundTrips) {
  const std::vector<Parcel<std::int64_t>> buf;
  const std::vector<detail::RunSpan> runs;
  std::vector<std::byte> frame;
  encode_multi_run_frame(buf, runs, 0, 1, 1, 0, 1, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  ASSERT_TRUE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 0, 1, 4, view, &reason))
      << reason;
  EXPECT_EQ(view.count(), 0u);
  EXPECT_EQ(view.run_count(), 0u);
}

TEST(MultiRunFrameTest, EveryBitFlipIsDetected) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 5, 6, clean);
  SealedRunFrameView<std::int64_t> view;
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    auto frame = clean;
    frame[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 5, 6, 16, view))
        << "flipped bit " << bit << " slipped through";
  }
}

TEST(MultiRunFrameTest, EveryTruncationIsDetected) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 0, 4, clean);
  SealedRunFrameView<std::int64_t> view;
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    const std::vector<std::byte> frame(clean.begin(),
                                       clean.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 0, 4, 16, view))
        << "truncation to " << keep << " bytes slipped through";
  }
}

/// Re-seals a forged TOX3 frame (header CRC at 48, trailer CRC last)
/// so the forged structure itself — not a checksum — is what decode
/// must reject.
std::vector<std::byte> reseal_v3(std::vector<std::byte> frame) {
  Crc32 crc;
  crc.update(frame.data(), 48);
  wire_write_u32(frame.data() + 48, crc.value());
  crc.update(frame.data() + 48, frame.size() - 48 - 4);
  wire_write_u32(frame.data() + frame.size() - 4, crc.value());
  return frame;
}

/// Patches descriptor `r`'s {dst_offset, count} in a sealed v3 frame
/// and re-seals it.
std::vector<std::byte> forge_descriptor(std::vector<std::byte> frame, std::size_t r,
                                        std::uint64_t dst_offset, std::uint64_t n) {
  std::byte* d = frame.data() + detail::kFrameV3HeaderBytes + r * detail::kRunDescriptorBytes;
  wire_write_u64(d, dst_offset);
  wire_write_u64(d + 8, n);
  return reseal_v3(std::move(frame));
}

TEST(MultiRunFrameTest, ForgedRunTablesAreTypedErrors) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  const auto refuse = [&](const std::vector<std::byte>& frame, const char* why) {
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, 2, 16, view,
                                                      &reason));
    EXPECT_EQ(reason, why);
  };
  // Zero-length run.
  refuse(forge_descriptor(clean, 0, 0, 0), "empty run descriptor");
  // Second run overlaps the first ([0,2) then [1,3)).
  refuse(forge_descriptor(clean, 1, 1, 2), "overlapping run descriptors");
  // Out-of-order descriptors are the same overlap class ([2..) then [0..)).
  {
    auto frame = forge_descriptor(clean, 0, 2, 2);
    refuse(forge_descriptor(std::move(frame), 1, 0, 2), "overlapping run descriptors");
  }
  // Run reaching past the scatter region [0, count).
  refuse(forge_descriptor(clean, 1, 3, 2), "run descriptor out of bounds");
  // Run count far beyond the region (also trips the bounds check, not
  // an allocation or an OOB scatter).
  refuse(forge_descriptor(clean, 1, 2, std::uint64_t{1} << 60), "run descriptor out of bounds");
  // A gap the table never covers: [0,2) then [3,4) accounts for only 3
  // of the 4 parcels on the wire.
  refuse(forge_descriptor(clean, 1, 3, 1), "run table does not cover the frame");
}

TEST(MultiRunFrameTest, ForgedRunCountIsBoundedBeforeParsing) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  // A run count claiming a table longer than the whole frame must be
  // rejected by the bound check before any descriptor is read.
  auto forged = clean;
  wire_write_u32(forged.data() + 44, 0xFFFFFFFFu);
  forged = reseal_v3(std::move(forged));
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "run table exceeds message size");
  // A plausible-but-wrong run count shifts the table/payload boundary;
  // the exact-size check refuses it.
  forged = clean;
  wire_write_u32(forged.data() + 44, 1);
  forged = reseal_v3(std::move(forged));
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "frame size mismatch");
}

TEST(MultiRunFrameTest, ForgedParcelCountIsBoundedBeforeParsing) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  const auto forge_count = [&](std::uint64_t count) {
    auto forged = clean;
    wire_write_u64(forged.data() + 28, count);
    return reseal_v3(std::move(forged));
  };
  // A count far beyond the bytes present must be rejected by the bound
  // check, not by reading past the frame.
  auto forged = forge_count(std::uint64_t{1} << 60);
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "parcel count exceeds message size");
  // A count smaller than the parcel bytes present is a size mismatch.
  forged = forge_count(fx.count - 1);
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "frame size mismatch");
  // So is a trailing byte after a correctly sealed frame.
  forged = clean;
  forged.insert(forged.end() - static_cast<std::ptrdiff_t>(detail::kFrameTrailerBytes),
                std::byte{0});
  forged = reseal_v3(std::move(forged));
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "frame size mismatch");
}

TEST(MultiRunFrameTest, NegativeMetadataRejected) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  EXPECT_THROW(encode_multi_run_frame(fx.buf, fx.runs, fx.count, -1, 1, 1, 2, frame),
               std::invalid_argument);
  EXPECT_THROW(encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, -3, 2, frame),
               std::invalid_argument);
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, -1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, -2, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
}

TEST(MultiRunFrameTest, RejectsWrongStepChannelAndIdentity) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 1, 3, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 2, 2, 1, 3, 16, view, &reason));
  EXPECT_EQ(reason, "message sealed for a different step");
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 1, 4, 16, view, &reason));
  EXPECT_EQ(reason, "message sealed for a different channel");
  // Origin 3 is out of range in a 2-node torus.
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 1, 3, 2, view, &reason));
  EXPECT_EQ(reason, "parcel identity out of range");
}

// --- Strided user-buffer views ------------------------------------------

TEST(StridedViewTest, SeedAndScatterTransposeColumns) {
  // Both matrices live row-major; the views walk columns (stride N).
  // seed reads send column p as node p's row; scatter writes node q's
  // result into recv column q — the engine never sees a dense copy.
  const Rank N = 16;
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  std::vector<std::int64_t> send_mat(static_cast<std::size_t>(N) * N);
  std::vector<std::int64_t> recv_mat(static_cast<std::size_t>(N) * N, -1);
  std::vector<StridedView<const std::int64_t>> send_views;
  std::vector<StridedView<std::int64_t>> recv_views;
  for (Rank p = 0; p < N; ++p) {
    send_views.push_back({send_mat.data() + p, static_cast<std::size_t>(N),
                          static_cast<std::ptrdiff_t>(N)});
    recv_views.push_back({recv_mat.data() + p, static_cast<std::size_t>(N),
                          static_cast<std::ptrdiff_t>(N)});
  }
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      // Column p, element q of the row-major send matrix.
      send_mat[static_cast<std::size_t>(q) * static_cast<std::size_t>(N) +
               static_cast<std::size_t>(p)] = p * 10000 + q;
    }
  }
  auto delivered = exchange_payloads_pooled(algo, seed_parcels_strided(N, send_views));
  scatter_parcels_strided(N, delivered, recv_views);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv_views[static_cast<std::size_t>(q)].at(static_cast<std::size_t>(p)),
                p * 10000 + q)
          << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(StridedViewTest, SeedRejectsShortViews) {
  std::int64_t one = 0;
  std::vector<StridedView<const std::int64_t>> views(4, {&one, 1, 1});
  EXPECT_THROW(seed_parcels_strided<std::int64_t>(4, views), std::invalid_argument);
}

// --- Pooled layout-faithful exchange -----------------------------------

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
    std::set<Rank> origins;
    for (const auto& parcel : out[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.block.dest, q);
      EXPECT_EQ(parcel.payload, parcel.block.origin * 10000 + q);
      origins.insert(parcel.block.origin);
    }
    EXPECT_EQ(origins.size(), static_cast<std::size_t>(N));
  }
}

TEST(PooledExchangeTest, DeliversTheAapePermutation) {
  for (const auto& extents :
       std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 8}, {8, 4, 4}, {4, 4, 4}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const auto out = exchange_payloads_pooled(algo, canonical_parcels(N));
    expect_delivered(N, out);
  }
}

TEST(PooledExchangeTest, NaiveLayoutDeliversToo) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  WireExchangeOptions options;
  options.layout = LayoutPolicy::kNaiveDestinationOrder;
  const auto out = exchange_payloads_pooled(algo, canonical_parcels(16), options);
  expect_delivered(16, out);
}

TEST(PooledExchangeTest, RunAccountingMatchesLayoutSimulator) {
  // The paper's §3.3 claim, cross-checked at the payload layer: the
  // pooled executor's run accounting must agree exactly with the
  // block-level layout simulator, because both order their buffers
  // with the same keys and hole-splice discipline.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {4, 4, 4}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const LayoutStats blocks = run_layout_simulation(algo, LayoutPolicy::kPaper);
    WireArena arena;
    WireExchangeOptions options;
    options.arena = &arena;
    exchange_payloads_pooled(algo, canonical_parcels(shape.num_nodes()), options);
    const WirePoolStats& wire = arena.stats();
    EXPECT_EQ(wire.total_sends, blocks.total_sends) << shape.to_string();
    EXPECT_EQ(wire.contiguous_sends, blocks.contiguous_sends) << shape.to_string();
    EXPECT_EQ(wire.gathered_parcels, blocks.gathered_blocks) << shape.to_string();
    EXPECT_EQ(wire.max_runs_per_send, blocks.max_runs_per_send) << shape.to_string();
  }
}

bool same_parcels(const std::vector<Parcel<std::int64_t>>& a,
                  const std::vector<Parcel<std::int64_t>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Parcel<std::int64_t>& x, const Parcel<std::int64_t>& y) {
                      return x.block == y.block && x.payload == y.payload;
                    });
}

TEST(PooledExchangeTest, CountingRearrangementMatchesReferenceStableSort) {
  // The executor's phase-boundary counting sort against the layout
  // simulator's reference order: std::stable_sort over the layout::
  // keys (the destination, for the naive layout). Equal keys must keep
  // their input order, so every (policy, phase, node) runs on the
  // canonical seed, a shuffle of it, and a shuffled doubled seed in
  // which every destination appears twice.
  SplitMix64 rng(14);
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{
           {4, 4}, {8, 8}, {12, 8}, {8, 4, 4}, {8, 8, 4}, {4, 4, 4, 4}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const ParcelBuffers<std::int64_t> seed = canonical_parcels(N);
    detail::LayoutScratch<std::int64_t> scratch;
    std::int64_t checked = 0, mismatched = 0;
    for (const LayoutPolicy policy :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      for (int phase = 1; phase <= algo.num_phases(); ++phase) {
        const bool scatter = algo.phase_kind(phase) == PhaseKind::kScatter;
        if (policy == LayoutPolicy::kPaper && scatter && algo.steps_in_phase(phase) == 0) {
          continue;  // nothing to order, and no transmit direction to key by
        }
        for (Rank p = 0; p < N; ++p) {
          const Coord pc = shape.coord_of(p);
          const auto key = [&](const Block& b) -> std::int64_t {
            if (policy == LayoutPolicy::kNaiveDestinationOrder) return b.dest;
            if (scatter) return layout::scatter_key(shape, pc, b, algo.direction(p, phase, 1));
            return layout::gray_rank(layout::difference_vector(algo, p, phase, b));
          };
          const auto& canonical = seed[static_cast<std::size_t>(p)];
          std::vector<Parcel<std::int64_t>> shuffled = canonical;
          deterministic_shuffle(shuffled, rng);
          std::vector<Parcel<std::int64_t>> doubled = shuffled;
          for (Parcel<std::int64_t> x : canonical) {
            x.payload = -x.payload - 1;
            doubled.push_back(x);
          }
          deterministic_shuffle(doubled, rng);
          using Buffer = std::vector<Parcel<std::int64_t>>;
          const Buffer* inputs[] = {&canonical, &shuffled, &doubled};
          for (const Buffer* input : inputs) {
            std::vector<std::pair<std::int64_t, Parcel<std::int64_t>>> keyed;
            for (const auto& x : *input) keyed.emplace_back(key(x.block), x);
            std::stable_sort(keyed.begin(), keyed.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
            std::vector<Parcel<std::int64_t>> expected;
            for (const auto& [k, x] : keyed) expected.push_back(x);
            std::vector<Parcel<std::int64_t>> actual = *input;
            detail::rearrange_by_layout(algo, policy, p, phase, actual, scratch);
            ++checked;
            if (!same_parcels(actual, expected)) ++mismatched;
          }
        }
      }
    }
    EXPECT_GT(checked, 0) << shape.to_string();
    EXPECT_EQ(mismatched, 0) << shape.to_string();
  }
}

TEST(PooledExchangeTest, PaperLayoutIsFullyContiguousIn2D) {
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  exchange_payloads_pooled(algo, canonical_parcels(64), options);
  EXPECT_TRUE(arena.stats().fully_contiguous());
  EXPECT_EQ(arena.stats().max_runs_per_send, 1);
  EXPECT_EQ(arena.stats().gathered_parcels, 0);
}

TEST(PooledExchangeTest, PaperLayoutBoundsRunsIn3D) {
  // n = 3: the parity obstruction allows at most 2^(n-2) = 2 runs.
  const TorusShape shape({8, 4, 4});
  const SuhShinAape algo(shape);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  exchange_payloads_pooled(algo, canonical_parcels(shape.num_nodes()), options);
  EXPECT_LE(arena.stats().max_runs_per_send, 2);
}

TEST(PooledExchangeTest, NaiveLayoutFragmentsSends) {
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  WireArena arena;
  WireExchangeOptions options;
  options.layout = LayoutPolicy::kNaiveDestinationOrder;
  options.arena = &arena;
  exchange_payloads_pooled(algo, canonical_parcels(64), options);
  EXPECT_FALSE(arena.stats().fully_contiguous());
  EXPECT_GT(arena.stats().gathered_parcels, 0);
  EXPECT_GT(arena.stats().max_runs_per_send, 1);
}

TEST(PooledExchangeTest, NaiveLayoutRunAccountingMatchesSimulatorToo) {
  // The dead-path regression: the fragmented (multi-run) branch of the
  // accounting must agree with the layout simulator as exactly as the
  // contiguous branch does. Before the run-gather rework the executors
  // hard-coded one run per message, so gathered_parcels never moved.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {4, 4, 4}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const LayoutStats blocks = run_layout_simulation(algo, LayoutPolicy::kNaiveDestinationOrder);
    WireArena arena;
    WireExchangeOptions options;
    options.layout = LayoutPolicy::kNaiveDestinationOrder;
    options.arena = &arena;
    exchange_payloads_pooled(algo, canonical_parcels(shape.num_nodes()), options);
    const WirePoolStats& wire = arena.stats();
    EXPECT_EQ(wire.total_sends, blocks.total_sends) << shape.to_string();
    EXPECT_EQ(wire.contiguous_sends, blocks.contiguous_sends) << shape.to_string();
    EXPECT_EQ(wire.gathered_parcels, blocks.gathered_blocks) << shape.to_string();
    EXPECT_EQ(wire.max_runs_per_send, blocks.max_runs_per_send) << shape.to_string();
    EXPECT_GT(wire.gathered_parcels, 0) << shape.to_string();
    EXPECT_GT(wire.max_runs_per_send, 1) << shape.to_string();
  }
}

TEST(PooledExchangeTest, RunsEncodedCountsTrueRunsPerMessage) {
  // Contiguous 2D paper layout: every message is exactly one run.
  {
    WireArena arena;
    WireExchangeOptions options;
    options.arena = &arena;
    exchange_payloads_pooled(SuhShinAape(TorusShape({8, 8})), canonical_parcels(64), options);
    EXPECT_EQ(arena.stats().runs_encoded, arena.stats().total_sends);
  }
  // Fragmented naive layout: strictly more runs than messages, and
  // never more than max_runs_per_send allows.
  {
    WireArena arena;
    WireExchangeOptions options;
    options.layout = LayoutPolicy::kNaiveDestinationOrder;
    options.arena = &arena;
    exchange_payloads_pooled(SuhShinAape(TorusShape({8, 8})), canonical_parcels(64), options);
    const WirePoolStats& wire = arena.stats();
    EXPECT_GT(wire.runs_encoded, wire.total_sends);
    EXPECT_LE(wire.runs_encoded, wire.total_sends * wire.max_runs_per_send);
  }
}

TEST(PooledExchangeTest, ArenaReachesSteadyStateAcrossExchanges) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  exchange_payloads_pooled(algo, canonical_parcels(16), options);
  const std::int64_t misses_first = arena.stats().pool_misses;
  EXPECT_GT(misses_first, 0);
  EXPECT_EQ(arena.in_use(), 0);
  // The pool is warm: a second exchange allocates no new frames.
  exchange_payloads_pooled(algo, canonical_parcels(16), options);
  EXPECT_EQ(arena.stats().pool_misses, misses_first);
  EXPECT_GT(arena.stats().pool_hits, 0);
  EXPECT_EQ(arena.in_use(), 0);
}

TEST(PooledExchangeTest, PublishesWireMetrics) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  Recorder recorder;
  WireExchangeOptions options;
  options.obs = &recorder;
  exchange_payloads_pooled(algo, canonical_parcels(16), options);
  MetricsRegistry& m = recorder.metrics();
  EXPECT_GT(m.counter("wire.messages").value(), 0);
  EXPECT_GT(m.counter("wire.parcels").value(), 0);
  EXPECT_GT(m.counter("wire.bytes_encoded").value(), 0);
  EXPECT_GT(m.counter("wire.contiguous_sends").value(), 0);
}

// --- Sealed exchange --------------------------------------------------

TEST(SealedWireTest, PooledPathSurvivesTamperingWithRetransmit) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  int tampered = 0;
  // Flip one payload byte of the first few transmissions; the sealed
  // frame must detect each and heal under retransmission.
  const ParcelTamperer tamperer = [&](const TransferContext&, std::vector<std::byte>& wire) {
    if (tampered >= 3 || wire.size() < 60) return false;
    ++tampered;
    wire[50] ^= std::byte{0x10};
    return true;
  };
  IntegrityReport report;
  const auto out = exchange_payloads_sealed(algo, canonical_parcels(16), tamperer, {}, &report);
  expect_delivered(16, out);
  EXPECT_EQ(report.corrupted, 3);
  EXPECT_EQ(report.retransmits, 3);
}

TEST(SealedWireTest, PooledPathGathersMultiRunFrames) {
  // The sealed pooled executor keeps buffers in caller (destination)
  // order — exactly the permuted layout that fragments send sets — so
  // its messages exercise the v3 run-gather encode, the hole-splice
  // scatter, and the true-run accounting. Before the rework this path
  // hard-coded one run per message and gathered_parcels stayed 0.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  WireArena arena;
  IntegrityOptions options;
  options.arena = &arena;
  IntegrityReport report;
  const auto out = exchange_payloads_sealed(algo, canonical_parcels(64), {}, options, &report);
  expect_delivered(64, out);
  EXPECT_GT(arena.stats().gathered_parcels, 0);
  EXPECT_GT(arena.stats().max_runs_per_send, 1);
  EXPECT_GT(arena.stats().runs_encoded, arena.stats().total_sends);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

// --- Deterministic fuzz harness ----------------------------------------

/// Applies one seeded mutation (truncate, extend, or bit flips) and
/// returns true when the result differs from the input.
bool mutate(SplitMix64& rng, const std::vector<std::byte>& clean, std::vector<std::byte>& out) {
  out = clean;
  switch (rng.next_below(4)) {
    case 0: {  // truncate
      const std::size_t keep = static_cast<std::size_t>(rng.next_below(clean.size()));
      out.resize(keep);
      return true;
    }
    case 1: {  // extend with garbage
      const std::size_t extra = 1 + static_cast<std::size_t>(rng.next_below(64));
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::byte>(rng.next() & 0xFF));
      }
      return true;
    }
    default: {  // flip 1..8 bits
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips; ++i) {
        const std::size_t bit = static_cast<std::size_t>(rng.next_below(out.size() * 8));
        out[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
      return out != clean;  // an even re-flip of the same bit cancels
    }
  }
}

TEST(WireFuzzTest, MutatedMultiRunFramesNeverDecode) {
  // The v3 codec under the same seeded mutation harness: no mutation
  // may decode, and (under the ASan/UBSan CI job) none may read out of
  // bounds — the run-table bound checks are what this leans on.
  SplitMix64 rng(0xD00DF00Du);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 3, 1, 2, 9, clean);
  SealedRunFrameView<std::int64_t> view;
  std::vector<std::byte> wire;
  for (int iter = 0; iter < 4000; ++iter) {
    if (!mutate(rng, clean, wire)) continue;
    std::string reason;
    const bool ok =
        decode_multi_run_frame<std::int64_t>(WireView(wire), 3, 1, 2, 9, 16, view, &reason);
    ASSERT_FALSE(ok) << "mutated multi-run frame decoded at iter " << iter;
    EXPECT_FALSE(reason.empty()) << "rejection must be named (iter " << iter << ")";
  }
}

TEST(WireFuzzTest, ResealedRandomRunTablesNeverScatterOutOfBounds) {
  // Adversarial (not just corrupted) tables: random descriptors with
  // *valid* CRCs. Decode must either refuse with a typed reason or
  // yield a view whose scatter stays inside count() parcels.
  SplitMix64 rng(0x7AB1E5u);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::vector<Parcel<std::int64_t>> out;
  for (int iter = 0; iter < 2000; ++iter) {
    auto frame = clean;
    for (std::size_t r = 0; r < fx.runs.size(); ++r) {
      std::byte* d =
          frame.data() + detail::kFrameV3HeaderBytes + r * detail::kRunDescriptorBytes;
      wire_write_u64(d, rng.next() % 8);
      wire_write_u64(d + 8, rng.next() % 8);
    }
    frame = reseal_v3(std::move(frame));
    std::string reason;
    if (decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, 2, 16, view, &reason)) {
      out.clear();
      view.append_to(out);  // ASan-audited: never writes past count()
      EXPECT_EQ(out.size(), view.count());
    } else {
      EXPECT_FALSE(reason.empty());
    }
  }
}

TEST(WireFuzzTest, RandomGarbageNeverDecodes) {
  SplitMix64 rng(0x5EEDu);
  SealedRunFrameView<std::int64_t> run_view;
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::byte> wire(static_cast<std::size_t>(rng.next_below(256)));
    for (auto& b : wire) b = static_cast<std::byte>(rng.next() & 0xFF);
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(wire), 1, 1, 0, 1, 4, run_view));
  }
}

}  // namespace
}  // namespace torex
