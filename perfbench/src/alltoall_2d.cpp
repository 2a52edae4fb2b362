// alltoall_2d: closed loop, one caller, back-to-back
// TorusCommunicator::alltoall<std::int64_t> (Suh-Shin, pooled wire) on a
// 16x16 torus — 65,536 eight-byte parcels per call, a ~1 MiB working
// set. Per-parcel costs dominate: the phase-boundary rearrangement
// (layout keys + stable sort), the should_send scan and the strided
// seed/scatter.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/params.hpp"
#include "obs/recorder.hpp"
#include "replay.hpp"
#include "runtime/communicator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace torex;
using Word = std::int64_t;
using Matrix = std::vector<std::vector<Word>>;

constexpr int kInputs = 4;  // distinct send matrices cycled by the loop
constexpr std::int64_t kSetupEveryNs = 500'000'000;  // a fresh set-up every 0.5 s
constexpr std::size_t kMinQuietCalls = 100;          // timing samples kept at least

Matrix make_send(std::uint64_t seed, int which, Rank N) {
  Matrix send(static_cast<std::size_t>(N), std::vector<Word>(static_cast<std::size_t>(N)));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)] =
          mix_word(seed, static_cast<std::uint64_t>(which), static_cast<std::uint64_t>(p),
                   static_cast<std::uint64_t>(q));
    }
  }
  return send;
}

/// One replayed alltoall: what it delivered and where its time went.
struct Replay {
  ParcelBuffers<Word> delivered;
  Matrix recv;
  LayerTimes layers;
  ReplayCounts counts;
  CrcProbe crc;
  std::int64_t wall_ns = 0;
};

/// TorusCommunicator::alltoall (Suh-Shin, §3.3 paper layout, pooled
/// multi-run wire) re-executed one public call at a time, each timed
/// from here. Follows exchange_payloads_pooled step for step so the
/// delivered buffers are byte-identical to the executor's.
Replay replay_alltoall(const SuhShinAape& algo, const Matrix& send, WireArena& arena) {
  Replay r;
  LayerTimes& L = r.layers;
  ReplayCounts& c = r.counts;
  const std::int64_t t_start = now_ns();
  const TorusShape& shape = algo.shape();
  const Rank N = shape.num_nodes();
  const auto views = row_views(send);
  ParcelBuffers<Word> buffers = L.time(kSeed, [&] { return seed_parcels_strided(N, views); });
  c.seeded_parcels = static_cast<std::int64_t>(N) * N;
  detail::require_canonical_parcel_seed(N, buffers);

  struct Pending {
    PooledFrame frame;
    Rank src = -1;
    bool active = false;
  };
  std::vector<Pending> inbox(static_cast<std::size_t>(N));
  std::vector<std::size_t> hole(static_cast<std::size_t>(N), 0);
  std::vector<detail::RunSpan> runs;
  std::vector<std::pair<std::uint64_t, Parcel<Word>>> keyed;

  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    const bool scatter = algo.phase_kind(phase) == PhaseKind::kScatter;
    for (Rank p = 0; p < N; ++p) {
      auto& buf = buffers[static_cast<std::size_t>(p)];
      if (scatter && algo.steps_in_phase(phase) == 0) continue;
      L.time(kRearrange, [&] {
        keyed.clear();
        keyed.reserve(buf.size());
        if (scatter) {
          const Direction dir = algo.direction(p, phase, 1);
          const Coord pc = shape.coord_of(p);
          for (const Parcel<Word>& a : buf) {
            keyed.emplace_back(
                static_cast<std::uint64_t>(layout::scatter_key(shape, pc, a.block, dir)), a);
          }
        } else {
          for (const Parcel<Word>& a : buf) {
            keyed.emplace_back(static_cast<std::uint64_t>(layout::gray_rank(
                                   layout::difference_vector(algo, p, phase, a.block))),
                               a);
          }
        }
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const auto& x, const auto& y) { return x.first < y.first; });
        for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = keyed[i].second;
      });
      c.rearranged_parcels += static_cast<std::int64_t>(buf.size());
      c.rearranged_bytes += static_cast<std::int64_t>(buf.size() * sizeof(Parcel<Word>));
    }

    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
        hole[static_cast<std::size_t>(p)] = buf.size();
        c.scanned_parcels += static_cast<std::int64_t>(buf.size());
        const std::size_t count = L.time(kScan, [&] {
          return detail::collect_send_runs(
              buf,
              [&](const Parcel<Word>& x) {
                ++c.should_send_calls;
                return algo.should_send(p, phase, step, x.block);
              },
              runs);
        });
        if (count == 0) continue;
        const Rank q = algo.partner(p, phase, step);
        Pending& out = inbox[static_cast<std::size_t>(q)];
        TOREX_CHECK(!out.active, "one-port receive violation in the replay");
        L.time(kEncode, [&] {
          out.frame.bind(arena, detail::kFrameV3HeaderBytes +
                                    runs.size() * detail::kRunDescriptorBytes +
                                    count * sizeof(Parcel<Word>) + detail::kFrameTrailerBytes);
          encode_multi_run_frame(buf, runs, count, phase, step, p, q, out.frame.bytes());
        });
        ++c.messages;
        c.runs += static_cast<std::int64_t>(runs.size());
        c.encoded_bytes += static_cast<std::int64_t>(out.frame.bytes().size());
        c.bytes_copied += static_cast<std::int64_t>(count * sizeof(Parcel<Word>));
        r.crc.run(out.frame.bytes());
        hole[static_cast<std::size_t>(p)] = runs.front().first;
        c.compacted_parcels += static_cast<std::int64_t>(buf.size());
        L.time(kCompact, [&] { detail::erase_runs(buf, runs); });
        out.src = p;
        out.active = true;
      }
      for (Rank p = 0; p < N; ++p) {
        Pending& in = inbox[static_cast<std::size_t>(p)];
        if (!in.active) continue;
        auto& buf = buffers[static_cast<std::size_t>(p)];
        SealedRunFrameView<Word> view;
        std::string why;
        const bool ok = L.time(kVerify, [&] {
          return decode_multi_run_frame<Word>(in.frame.view(), phase, step, in.src, p, N, view,
                                              &why);
        });
        TOREX_CHECK(ok, "replayed frame failed verification: " + why);
        c.verified_bytes += static_cast<std::int64_t>(in.frame.bytes().size());
        L.time(kSplice, [&] {
          const std::size_t at = std::min(hole[static_cast<std::size_t>(p)], buf.size());
          buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), view.count(), Parcel<Word>{});
          view.scatter(buf.data() + at);
        });
        c.spliced_bytes += static_cast<std::int64_t>(view.payload_size());
        c.bytes_copied += static_cast<std::int64_t>(view.payload_size());
        in.frame.reset();
        in.active = false;
      }
    }
  }
  detail::check_parcel_postcondition(N, buffers);

  r.recv = L.time(kScatter, [&] { return scatter_rows(N, buffers); });
  c.scattered_parcels = static_cast<std::int64_t>(N) * N;
  r.delivered = std::move(buffers);
  r.wall_ns = now_ns() - t_start - r.crc.ns;  // the CRC probe is not part of the replay
  return r;
}

void run_end_to_end(const Options& options, const TorusShape& shape,
                    const std::vector<Matrix>& inputs, Result& result) {
  std::unique_ptr<TorusCommunicator> comm;
  const auto setup = [&] {
    // A new communicator (which builds the schedule) through its first call.
    comm.reset();
    Timed t;
    const std::int64_t t0 = now_ns();
    comm = std::make_unique<TorusCommunicator>(shape, CostParams{});
    const Matrix recv = comm->alltoall(inputs[0], AlltoallAlgorithm::kSuhShin);
    t.ns = now_ns() - t0;
    t.ok = transpose_ok(inputs[0], recv);
    return t;
  };
  const auto call = [&](std::size_t i) {
    const Matrix& send = inputs[i % inputs.size()];
    Timed t;
    try {
      const std::int64_t t0 = now_ns();
      const Matrix recv = comm->alltoall(send, AlltoallAlgorithm::kSuhShin);
      t.ns = now_ns() - t0;
      t.ok = transpose_ok(send, recv);
    } catch (const std::exception& error) {
      std::cerr << "alltoall threw: " << error.what() << "\n";
    }
    return t;
  };
  const std::int64_t N = shape.num_nodes();
  run_closed_loop(options, kSetupEveryNs, kMinQuietCalls, N * N, setup, call, result);
}

void run_traced(const Options& options, const TorusShape& shape, const std::vector<Matrix>& inputs,
                Result& result) {
  const Rank N = shape.num_nodes();
  add_build_metric(result, shape);

  const SuhShinAape algo(shape);
  TorusCommunicator comm(shape, CostParams{});
  WireArena replay_arena;
  WireArena executor_arena;
  const Matrix& send = inputs[0];
  // Warm both arenas and the communicator so every measured call is a
  // steady-state one.
  for (int i = 0; i < 2; ++i) {
    (void)comm.alltoall(send, AlltoallAlgorithm::kSuhShin);
    (void)replay_alltoall(algo, send, replay_arena);
  }

  // Fidelity: the replay against the real executor and the real call.
  const Replay first = replay_alltoall(algo, send, replay_arena);
  WireExchangeOptions wire;
  wire.arena = &executor_arena;
  const auto executed = exchange_payloads_pooled(algo, seed_parcels_strided(N, row_views(send)), wire);
  result.check(same_bytes(first.delivered, executed),
               "replayed buffers differ from exchange_payloads_pooled's");
  const auto wire_stats = [&] { return comm.wire_stats(); };
  Matrix real;
  const CallCounts counted =
      count_call(wire_stats, [&] { real = comm.alltoall(send, AlltoallAlgorithm::kSuhShin); });
  result.check(first.recv == real, "replayed recv differs from TorusCommunicator::alltoall's");
  result.check(transpose_ok(send, first.recv), "replay failed the transpose oracle");
  check_against_wire(result, first.counts, counted.wire, "alltoall_2d");

  // Counts must repeat exactly: a second real call (and, below, every
  // further replay) must count the same work.
  std::int64_t unstable = unstable_call_counts(
      counted,
      count_call(wire_stats, [&] { (void)comm.alltoall(send, AlltoallAlgorithm::kSuhShin); }));

  // Timed rounds: an untraced call, a call with a live Recorder, and a
  // replay, interleaved so drift hits all three alike.
  std::vector<double> plain_ns, recorded_ns, replay_ns;
  std::vector<LayerTimes> layer_samples;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline || replay_ns.size() < 3) {
    std::int64_t t0 = now_ns();
    (void)comm.alltoall(send, AlltoallAlgorithm::kSuhShin);
    plain_ns.push_back(static_cast<double>(now_ns() - t0));
    Recorder recorder;
    t0 = now_ns();
    (void)comm.alltoall(send, AlltoallAlgorithm::kSuhShin, sizeof(Word), nullptr, &recorder);
    recorded_ns.push_back(static_cast<double>(now_ns() - t0));
    const Replay r = replay_alltoall(algo, send, replay_arena);
    unstable += unstable_fields(first.counts, r.counts);
    replay_ns.push_back(static_cast<double>(r.wall_ns));
    layer_samples.push_back(r.layers);
  }
  const double real_ns = median(plain_ns);
  add_layer_metrics(result, median_layers(layer_samples), first.counts, first.crc, real_ns,
                    median(replay_ns));
  add_call_counts(result, counted);
  result.add("obs.recorder_overhead_pct", 100.0 * (median(recorded_ns) - real_ns) / real_ns, "%");
  result.add("replay.unstable_counts", static_cast<double>(unstable), "count");
  result.attempted = static_cast<std::int64_t>(replay_ns.size());
}

}  // namespace

bool run_alltoall_2d(const Options& options, Result& result) {
  const TorusShape shape({16, 16});
  const Rank N = shape.num_nodes();
  const double parcels = static_cast<double>(N) * N;
  if (!print_environment("alltoall_2d", shape.to_string(), static_cast<std::int64_t>(parcels),
                         parcels * sizeof(Parcel<Word>))) {
    return false;
  }
  std::vector<Matrix> inputs;
  for (int i = 0; i < kInputs; ++i) inputs.push_back(make_send(options.seed, i, N));
  if (options.trace) {
    run_traced(options, shape, inputs, result);
  } else {
    run_end_to_end(options, shape, inputs, result);
  }
  return true;
}

}  // namespace perfbench
