// checked_3d: closed loop, one caller, back-to-back
// TorusCommunicator::alltoall_checked on an 8x8x4 torus with 64-byte
// payloads — 65,536 parcels per call, a 4.5 MiB parcel working set (above
// L2). 8x8x4 rather than 8x8x8: a ~16 ms call fits in the quiet windows
// of a shared host where an ~85 ms one rarely does, which halved the
// run-to-run spread; the path and its per-byte character are the same.
// This path never rearranges, and 3D sends are multi-run TOX3 frames,
// so per-byte gather, CRC, verify and splice dominate. A seeded,
// transient corruption model (a few channels, each active for exactly
// one tick) makes every call end kCorrected with a fixed retransmit
// count, so the verify-reject -> retransmit path runs on every call.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/params.hpp"
#include "obs/recorder.hpp"
#include "replay.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace torex;

/// One 64-byte block of user data.
struct Payload {
  std::uint64_t words[8];
  bool operator==(const Payload&) const = default;
};
static_assert(sizeof(Payload) == 64);

using Matrix = std::vector<std::vector<Payload>>;

constexpr int kInputs = 2;       // distinct send matrices cycled by the loop
constexpr std::int64_t kSetupEveryNs = 2'000'000'000;  // a fresh set-up every 2 s
constexpr std::size_t kMinQuietCalls = 10;              // timing samples kept at least
constexpr int kCorruptions = 3;  // corrupting (channel, tick) events per call

Matrix make_send(std::uint64_t seed, int which, Rank N) {
  Matrix send(static_cast<std::size_t>(N), std::vector<Payload>(static_cast<std::size_t>(N)));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      Payload& x = send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)];
      for (std::uint64_t w = 0; w < 8; ++w) {
        x.words[w] = static_cast<std::uint64_t>(
            mix_word(seed, static_cast<std::uint64_t>(which) * 8 + w,
                     static_cast<std::uint64_t>(p), static_cast<std::uint64_t>(q)));
      }
    }
  }
  return send;
}

/// The seeded corruption input: kCorruptions transmissions of a clean
/// run, drawn by seed at distinct schedule steps, each damaged on its
/// first channel for exactly the one tick it crosses it. A clean run
/// transmits flat step k at tick k; every corrupted step retransmits
/// once and so shifts later steps by one tick, which the windows
/// account for. The retransmission lands one tick later, outside the
/// window, so every call heals with exactly kCorruptions retransmits.
CorruptionModel make_corruption(const SuhShinAape& algo, std::uint64_t seed) {
  const Rank N = algo.shape().num_nodes();
  std::vector<TransferContext> transfers;
  const ParcelTamperer record = [&](const TransferContext& ctx, std::vector<std::byte>&) {
    transfers.push_back(ctx);
    return false;
  };
  ParcelBuffers<std::int64_t> probe(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) probe[static_cast<std::size_t>(p)].push_back({Block{p, q}, 0});
  }
  (void)exchange_payloads_sealed(algo, std::move(probe), record);

  SplitMix64 rng{seed ^ 0xc0bb1e5ULL};
  std::vector<TransferContext> chosen;
  while (static_cast<int>(chosen.size()) < kCorruptions) {
    const TransferContext& t = transfers[rng.next() % transfers.size()];
    const bool step_taken = std::any_of(chosen.begin(), chosen.end(), [&](const auto& c) {
      return c.tick == t.tick;
    });
    if (!step_taken) chosen.push_back(t);
  }
  std::sort(chosen.begin(), chosen.end(),
            [](const auto& a, const auto& b) { return a.tick < b.tick; });
  CorruptionModel model;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const std::int64_t tick = chosen[i].tick + static_cast<std::int64_t>(i);
    const CorruptionKind kind = rng.next() % 2 == 0 ? CorruptionKind::kBitFlip
                                                    : CorruptionKind::kTruncate;
    model.corrupt_channel(chosen[i].src, chosen[i].direction, kind, tick, tick + 1, rng.next());
  }
  return model;
}

ResilienceOptions suh_shin() {
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  return options;
}

/// One checked call's verdict against the fixed expectation.
bool outcome_ok(const ExchangeOutcome& outcome) {
  return outcome.integrity == IntegrityStatus::kCorrected &&
         outcome.corrupted_messages == kCorruptions && outcome.retransmits == kCorruptions &&
         outcome.escalations == 0;
}

struct Replay {
  ParcelBuffers<Payload> delivered;
  Matrix recv;
  LayerTimes layers;
  ReplayCounts counts;
  CrcProbe crc;
  std::int64_t wall_ns = 0;
};

/// alltoall_checked's sealed pooled path (exchange_payloads_sealed with
/// the corruption tamperer) re-executed one public call at a time.
/// Tampering and retransmission bookkeeping are not a layer of their
/// own; their time lands in the residual.
Replay replay_checked(const SuhShinAape& algo, const Matrix& send, const ParcelTamperer& tamperer,
                      WireArena& arena) {
  Replay r;
  LayerTimes& L = r.layers;
  ReplayCounts& c = r.counts;
  const std::int64_t t_start = now_ns();
  const Rank N = algo.shape().num_nodes();
  const auto views = row_views(send);
  ParcelBuffers<Payload> buffers = L.time(kSeed, [&] { return seed_parcels_strided(N, views); });
  c.seeded_parcels = static_cast<std::int64_t>(N) * N;
  detail::require_canonical_parcel_seed(N, buffers);
  const IntegrityOptions defaults;

  struct Pending {
    PooledFrame frame;
    SealedRunFrameView<Payload> view;
    Rank src = -1;
    bool active = false;
  };
  std::vector<Pending> pending(static_cast<std::size_t>(N));
  std::vector<std::size_t> hole(static_cast<std::size_t>(N), 0);
  std::vector<detail::RunSpan> runs;
  std::int64_t tick = 0;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    const int hops = algo.hops_per_step(phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      std::int64_t extra_ticks = 0;
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
        hole[static_cast<std::size_t>(p)] = buf.size();
        c.scanned_parcels += static_cast<std::int64_t>(buf.size());
        const std::size_t count = L.time(kScan, [&] {
          return detail::collect_send_runs(
              buf,
              [&](const Parcel<Payload>& x) {
                ++c.should_send_calls;
                return algo.should_send(p, phase, step, x.block);
              },
              runs);
        });
        if (count == 0) continue;
        const std::size_t run_bytes = count * sizeof(Parcel<Payload>);
        const Rank q = algo.partner(p, phase, step);
        const Direction dir = algo.direction(p, phase, step);
        Pending& out = pending[static_cast<std::size_t>(q)];
        TOREX_CHECK(!out.active, "one-port receive violation in the replay");
        for (int attempt = 0;; ++attempt) {
          L.time(kEncode, [&] {
            out.frame.bind(arena, detail::kFrameV3HeaderBytes +
                                      runs.size() * detail::kRunDescriptorBytes + run_bytes +
                                      detail::kFrameTrailerBytes);
            encode_multi_run_frame(buf, runs, count, phase, step, p, q, out.frame.bytes());
          });
          ++c.messages;
          c.runs += static_cast<std::int64_t>(runs.size());
          c.encoded_bytes += static_cast<std::int64_t>(out.frame.bytes().size());
          c.bytes_copied += static_cast<std::int64_t>(run_bytes);
          r.crc.run(out.frame.bytes());
          TransferContext ctx;
          ctx.phase = phase;
          ctx.step = step;
          ctx.src = p;
          ctx.dst = q;
          ctx.direction = dir;
          ctx.hops = hops;
          ctx.tick = tick + attempt;
          ctx.attempt = attempt;
          if (tamperer) tamperer(ctx, out.frame.bytes());
          c.verified_bytes += static_cast<std::int64_t>(out.frame.bytes().size());
          const bool ok = L.time(kVerify, [&] {
            return decode_multi_run_frame<Payload>(out.frame.view(), phase, step, p, q, N,
                                                   out.view);
          });
          if (ok) {
            out.src = p;
            out.active = true;
            hole[static_cast<std::size_t>(p)] = runs.front().first;
            c.compacted_parcels += static_cast<std::int64_t>(buf.size());
            L.time(kCompact, [&] { detail::erase_runs(buf, runs); });
            extra_ticks = std::max<std::int64_t>(extra_ticks, attempt);
            break;
          }
          ++c.rejects;
          TOREX_CHECK(attempt < defaults.max_retransmits,
                      "replay exhausted its retransmit budget");
        }
      }
      for (Rank p = 0; p < N; ++p) {
        Pending& in = pending[static_cast<std::size_t>(p)];
        if (!in.active) continue;
        auto& buf = buffers[static_cast<std::size_t>(p)];
        L.time(kSplice, [&] {
          const std::size_t at = std::min(hole[static_cast<std::size_t>(p)], buf.size());
          buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), in.view.count(),
                     Parcel<Payload>{});
          in.view.scatter(buf.data() + at);
        });
        c.spliced_bytes += static_cast<std::int64_t>(in.view.payload_size());
        c.bytes_copied += static_cast<std::int64_t>(in.view.payload_size());
        in.frame.reset();
        in.active = false;
      }
      tick += 1 + extra_ticks;
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
                    const std::vector<Matrix>& inputs, const CorruptionModel& corruption,
                    Result& result) {
  const FaultModel no_faults;
  std::unique_ptr<TorusCommunicator> comm;
  const auto setup = [&] {
    // A new communicator (which builds the schedule) through its first call.
    comm.reset();
    ExchangeOutcome outcome;
    Timed t;
    const std::int64_t t0 = now_ns();
    comm = std::make_unique<TorusCommunicator>(shape, CostParams{});
    const Matrix recv =
        comm->alltoall_checked(inputs[0], no_faults, corruption, outcome, suh_shin());
    t.ns = now_ns() - t0;
    t.ok = transpose_ok(inputs[0], recv) && outcome_ok(outcome);
    if (!t.ok) std::cerr << "set-up call: " << outcome.summary() << "\n";
    return t;
  };
  const auto call = [&](std::size_t i) {
    const Matrix& send = inputs[i % inputs.size()];
    ExchangeOutcome outcome;
    Timed t;
    try {
      const std::int64_t t0 = now_ns();
      const Matrix recv = comm->alltoall_checked(send, no_faults, corruption, outcome, suh_shin());
      t.ns = now_ns() - t0;
      t.ok = transpose_ok(send, recv) && outcome_ok(outcome);
      if (!t.ok) std::cerr << "call " << i << ": " << outcome.summary() << "\n";
    } catch (const std::exception& error) {
      std::cerr << "alltoall_checked threw: " << error.what() << "\n";
    }
    return t;
  };
  const std::int64_t N = shape.num_nodes();
  run_closed_loop(options, kSetupEveryNs, kMinQuietCalls, N * N, setup, call, result);
}

void run_traced(const Options& options, const TorusShape& shape, const std::vector<Matrix>& inputs,
                const SuhShinAape& algo, const CorruptionModel& corruption, Result& result) {
  const Rank N = shape.num_nodes();
  const FaultModel no_faults;
  add_build_metric(result, shape);

  TorusCommunicator comm(shape, CostParams{});
  const ParcelTamperer tamperer = corruption.tamperer(algo.torus());
  WireArena replay_arena;
  WireArena executor_arena;
  const Matrix& send = inputs[0];
  ExchangeOutcome outcome;
  (void)comm.alltoall_checked(send, no_faults, corruption, outcome, suh_shin());
  (void)replay_checked(algo, send, tamperer, replay_arena);

  const Replay first = replay_checked(algo, send, tamperer, replay_arena);
  IntegrityOptions iopts;
  iopts.arena = &executor_arena;
  IntegrityReport report;
  const auto executed = exchange_payloads_sealed(algo, seed_parcels_strided(N, row_views(send)),
                                                 tamperer, iopts, &report);
  result.check(same_bytes(first.delivered, executed),
               "replayed buffers differ from exchange_payloads_sealed's");
  result.check(first.counts.rejects == report.corrupted,
               "replay rejects differ from the executor's corrupted count");
  const auto wire_stats = [&] { return comm.wire_stats(); };
  Matrix real;
  const CallCounts counted = count_call(wire_stats, [&] {
    real = comm.alltoall_checked(send, no_faults, corruption, outcome, suh_shin());
  });
  result.check(outcome_ok(outcome), "real call did not end kCorrected: " + outcome.summary());
  result.check(first.recv == real, "replayed recv differs from alltoall_checked's");
  result.check(transpose_ok(send, first.recv), "replay failed the transpose oracle");
  check_against_wire(result, first.counts, counted.wire, "checked_3d");
  std::int64_t unstable = unstable_call_counts(counted, count_call(wire_stats, [&] {
    (void)comm.alltoall_checked(send, no_faults, corruption, outcome, suh_shin());
  }));

  std::vector<double> plain_ns, recorded_ns, replay_ns;
  std::vector<LayerTimes> layer_samples;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline || replay_ns.size() < 3) {
    std::int64_t t0 = now_ns();
    (void)comm.alltoall_checked(send, no_faults, corruption, outcome, suh_shin());
    plain_ns.push_back(static_cast<double>(now_ns() - t0));
    Recorder recorder;
    ResilienceOptions traced = suh_shin();
    traced.obs = &recorder;
    t0 = now_ns();
    (void)comm.alltoall_checked(send, no_faults, corruption, outcome, traced);
    recorded_ns.push_back(static_cast<double>(now_ns() - t0));
    const Replay r = replay_checked(algo, send, tamperer, replay_arena);
    unstable += unstable_fields(first.counts, r.counts);
    replay_ns.push_back(static_cast<double>(r.wall_ns));
    layer_samples.push_back(r.layers);
  }
  const double real_ns = median(plain_ns);
  add_layer_metrics(result, median_layers(layer_samples), first.counts, first.crc, real_ns,
                    median(replay_ns));
  add_call_counts(result, counted);
  result.add("integrity.corrupted", static_cast<double>(outcome.corrupted_messages), "count");
  result.add("integrity.retransmits", static_cast<double>(outcome.retransmits), "count");
  result.add("obs.recorder_overhead_pct", 100.0 * (median(recorded_ns) - real_ns) / real_ns, "%");
  result.add("replay.unstable_counts", static_cast<double>(unstable), "count");
  result.attempted = static_cast<std::int64_t>(replay_ns.size());
}

}  // namespace

bool run_checked_3d(const Options& options, Result& result) {
  const TorusShape shape({8, 8, 4});
  const Rank N = shape.num_nodes();
  const double parcels = static_cast<double>(N) * N;
  if (!print_environment("checked_3d", shape.to_string(), static_cast<std::int64_t>(parcels),
                         parcels * sizeof(Parcel<Payload>))) {
    return false;
  }
  const SuhShinAape algo(shape);
  const CorruptionModel corruption = make_corruption(algo, options.seed);
  std::vector<Matrix> inputs;
  for (int i = 0; i < kInputs; ++i) inputs.push_back(make_send(options.seed, i, N));
  if (options.trace) {
    run_traced(options, shape, inputs, algo, corruption, result);
  } else {
    run_end_to_end(options, shape, inputs, corruption, result);
  }
  return true;
}

}  // namespace perfbench
