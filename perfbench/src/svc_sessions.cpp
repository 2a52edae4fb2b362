// svc_sessions: a torexd SessionManager on an 8x8 torus under an open
// loop arrival plan (virtual time) that offers ~4/3 of modeled
// capacity, with svc_loadgen's traffic model: 8 tenants, weights 1-4,
// ~30% of sessions with deadlines, t6 limited to one session in flight
// and t7 one byte over its per-session byte quota. One thread submits
// the plan, then drives run_one() as fast as it can. The only workload
// that exercises admission, WFQ dispatch, the per-phase re-entrant
// stepper and the per-step journal writes.
//
// Each drive runs the whole plan on a fresh manager, so every drive of
// a seed is the same schedule in virtual time: the disposition counts
// and virtual-time latencies are exact, and every drive must reproduce
// the first one's.
#include <cmath>
#include <string>
#include <vector>

#include "costmodel/params.hpp"
#include "obs/recorder.hpp"
#include "replay.hpp"
#include "runtime/journal.hpp"
#include "svc/session_exchange.hpp"
#include "svc/session_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace torex;
using Word = std::int64_t;
using Matrix = std::vector<std::vector<Word>>;

constexpr int kSessions = 600;     // sessions per drive
constexpr int kSetupSessions = 16; // the untimed first drive of a set-up
constexpr std::int64_t kSetupEveryNs = 1'000'000'000;  // a fresh set-up every second
constexpr double kProbeEverySeconds = 0.02;  // contention probe cadence in a drive
constexpr std::size_t kMinQuietSessions = 1000;  // timing samples kept at least
constexpr double kMeanGap = 3.0;   // mean arrival gap, in phase costs (~4/3 load on 8x8)

/// The payload node p sends node q in session `id` of a seed's plan.
Word payload(std::uint64_t seed, SessionId id, Rank p, Rank q) {
  return mix_word(seed, static_cast<std::uint64_t>(id) + 1000, static_cast<std::uint64_t>(p),
                  static_cast<std::uint64_t>(q));
}

SessionManagerOptions manager_options(Rank N, Recorder* obs) {
  SessionManagerOptions options;
  options.max_active = 8;
  options.max_queued = 64;
  // t7: one byte short of a full exchange, so every t7 session is
  // refused at the door. t6: at most one session in flight at a time.
  options.quotas["t7"].max_parcel_bytes =
      static_cast<std::int64_t>(N) * N * static_cast<std::int64_t>(sizeof(Word)) - 1;
  options.quotas["t6"].max_sessions_in_flight = 1;
  options.obs = obs;
  return options;
}

/// The seeded open-loop arrival plan (svc_loadgen's traffic model).
std::vector<SessionRequest> make_plan(std::uint64_t seed, Rank N, double phase_cost, int sessions) {
  SplitMix64 rng{seed};
  std::vector<SessionRequest> plan;
  plan.reserve(static_cast<std::size_t>(sessions));
  double arrival = 0.0;
  for (SessionId id = 0; id < sessions; ++id) {
    arrival += -kMeanGap * phase_cost * std::log(rng.uniform());
    SessionRequest req;
    req.tenant = "t";
    req.tenant += std::to_string(rng.next() % 8);
    req.weight = static_cast<int>(1 + rng.next() % 4);
    req.arrival = arrival;
    if (rng.next() % 10 < 3) req.deadline = phase_cost * (4.0 + 16.0 * rng.uniform());
    req.send.assign(static_cast<std::size_t>(N), std::vector<Word>(static_cast<std::size_t>(N)));
    for (Rank p = 0; p < N; ++p) {
      for (Rank q = 0; q < N; ++q) {
        req.send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)] = payload(seed, id, p, q);
      }
    }
    plan.push_back(std::move(req));
  }
  return plan;
}

bool oracle_ok(std::uint64_t seed, SessionId id, const Matrix& recv, Rank N) {
  if (static_cast<Rank>(recv.size()) != N) return false;
  for (Rank q = 0; q < N; ++q) {
    const auto& row = recv[static_cast<std::size_t>(q)];
    if (static_cast<Rank>(row.size()) != N) return false;
    for (Rank p = 0; p < N; ++p) {
      if (row[static_cast<std::size_t>(p)] != payload(seed, id, p, q)) return false;
    }
  }
  return true;
}

/// What one drive of the plan did.
struct Drive {
  SvcStats stats;
  std::vector<double> dispatch_us;  // run_one() calls that executed a phase
  double drive_s = 0.0;             // wall time inside run_one(), all calls
  double submit_s = 0.0;            // wall time inside submit(), all calls
  std::vector<double> latency_vt;   // completed sessions, virtual time
  std::int64_t wrong = 0;           // completed sessions that failed the oracle
  SessionId sample = -1;            // first completed session
  Matrix sample_result;
  std::vector<std::byte> sample_journal;
};

/// Submits the plan to a fresh manager and drives it to idle, timing
/// every submit() and run_one(); then checks every session outside the
/// timed window: the transpose oracle on each completed result, and
/// SvcStats conservation.
Drive drive(const TorusShape& shape, const std::vector<SessionRequest>& plan, std::uint64_t seed,
            Recorder* obs, Result& result, QuietRun* run = nullptr) {
  const Rank N = shape.num_nodes();
  Drive d;
  SessionManager mgr(shape, CostParams{}, manager_options(N, obs));
  std::vector<SessionRequest> requests = plan;
  for (SessionRequest& req : requests) {
    const std::int64_t t0 = now_ns();
    (void)mgr.submit(std::move(req));
    d.submit_s += static_cast<double>(now_ns() - t0) * 1e-9;
  }
  // Without a QuietRun every phase-executing dispatch is a sample. With
  // one, the sample is a completed session's service time — the summed
  // wall time of the dispatches that ran its phases — spanning the
  // segments from its first dispatch to its completion. Attribution
  // reads the records of the sessions that have arrived and are not yet
  // terminal, outside the timed window.
  std::vector<SessionId> live;
  std::vector<int> phases_seen(plan.size(), 0);
  std::vector<double> service_ms(plan.size(), 0.0);
  std::vector<std::size_t> first_segment(plan.size(), 0);
  std::size_t next_arrival = 0;
  std::int64_t phases = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    const bool more = mgr.run_one();
    const std::int64_t dt = now_ns() - t0;
    d.drive_s += static_cast<double>(dt) * 1e-9;
    if (run != nullptr) run->current().busy_s += static_cast<double>(dt) * 1e-9;
    if (!more) break;
    const std::int64_t now_phases = mgr.stats().phases_executed;
    const bool ran_phase = now_phases > phases;
    phases = now_phases;
    if (run == nullptr) {
      if (ran_phase) d.dispatch_us.push_back(static_cast<double>(dt) * 1e-3);
      continue;
    }
    const double vclock = mgr.now();
    while (next_arrival < plan.size() && plan[next_arrival].arrival <= vclock) {
      live.push_back(static_cast<SessionId>(next_arrival++));
    }
    int attributed = 0;
    for (std::size_t i = 0; i < live.size();) {
      const auto id = static_cast<std::size_t>(live[i]);
      const SessionRecord rec = mgr.record(live[i]);
      if (rec.phases_done > phases_seen[id]) {
        if (phases_seen[id] == 0) first_segment[id] = run->segment();
        phases_seen[id] = rec.phases_done;
        service_ms[id] += static_cast<double>(dt) * 1e-6;
        ++attributed;
      }
      if (rec.terminal()) {
        if (rec.state == SessionState::kCompleted) {
          run->add_op(service_ms[id], first_segment[id]);
          run->current().parcels += static_cast<std::int64_t>(N) * N;
        }
        live[i] = live.back();
        live.pop_back();
      } else {
        ++i;
      }
    }
    result.check(attributed == (ran_phase ? 1 : 0),
                 "a dispatch must advance exactly the one session it ran");
    run->settle();
  }

  d.stats = mgr.stats();
  const SvcStats& s = d.stats;
  const auto offered = static_cast<std::int64_t>(plan.size());
  result.check(s.offered == offered && s.disposed() == s.offered,
               "conservation: admitted + rejected + expired-in-queue must equal offered");
  result.check(s.admitted == s.completed + s.failed + s.cancelled + s.deadline_missed_running,
               "conservation: every admitted session must land in one terminal bucket");
  result.check(s.failed == 0 && s.cancelled == 0 && s.cancelled_queued == 0,
               "the plan injects no failures or cancels");
  result.check(s.parcels_delivered == s.completed * N * N,
               "parcels delivered must equal completed sessions x N^2");
  result.check(mgr.outstanding_frames() == 0, "arena must hold no leased frames at idle");
  std::int64_t wrong = 0;
  for (SessionId id = 0; id < mgr.sessions(); ++id) {
    const SessionRecord rec = mgr.record(id);
    result.check(rec.terminal(), "every session must be terminal at idle");
    if (rec.state != SessionState::kCompleted) continue;
    d.latency_vt.push_back(rec.latency());
    const Matrix recv = mgr.take_result(id);
    if (!oracle_ok(seed, id, recv, N)) ++wrong;
    if (d.sample < 0) {
      d.sample = id;
      d.sample_result = recv;
      d.sample_journal = mgr.journal(id).encode();
    }
  }
  result.check(wrong == 0, "a completed session failed the transpose oracle");
  result.check(s.completed > 0 && s.rejected > 0 && s.deadline_missed() > 0,
               "the overload plan must complete, shed and miss deadlines");
  d.wrong = wrong;
  return d;
}

/// Every drive of one plan must reproduce the first drive exactly.
void check_same_schedule(Result& result, const Drive& a, const Drive& b) {
  result.check(a.stats.completed == b.stats.completed && a.stats.rejected == b.stats.rejected &&
                   a.stats.deadline_missed() == b.stats.deadline_missed() &&
                   a.stats.phases_executed == b.stats.phases_executed &&
                   a.latency_vt == b.latency_vt,
               "two drives of the same plan disagree: the schedule is not deterministic");
}

double setup_once(const TorusShape& shape, const std::vector<SessionRequest>& warmup, Result& result) {
  const Rank N = shape.num_nodes();
  const std::int64_t t0 = now_ns();
  SessionManager mgr(shape, CostParams{}, manager_options(N, nullptr));
  for (const SessionRequest& req : warmup) (void)mgr.submit(req);
  mgr.run_until_idle();
  const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
  const SvcStats s = mgr.stats();
  result.check(s.disposed() == s.offered && s.completed > 0, "set-up drive did not settle");
  return dt;
}

void run_end_to_end(const Options& options, const TorusShape& shape,
                    const std::vector<SessionRequest>& plan, Result& result) {
  const std::vector<SessionRequest> warmup(plan.begin(), plan.begin() + kSetupSessions);
  std::vector<Drive> drives;
  std::int64_t completed = 0;
  QuietRun run(options.seconds, kProbeEverySeconds);
  std::int64_t next_setup = 0;
  while (run.more()) {
    if (now_ns() >= next_setup) {
      run.add_setup(setup_once(shape, warmup, result));
      next_setup = now_ns() + kSetupEveryNs;
      run.settle();
    }
    Drive d = drive(shape, plan, options.seed, nullptr, result, &run);
    if (!drives.empty()) check_same_schedule(result, drives.front(), d);
    // Sheds and deadline misses are the admission controller's intended
    // answer to overload (exact per seed, and every drive must repeat
    // them); they lower completed_share, not the run's failure count.
    result.attempted += d.stats.offered;
    result.failed += d.wrong;
    completed += d.stats.completed;
    d.sample_result.clear();
    drives.push_back(std::move(d));
  }
  run.finish();
  add_quiet_timings(result, run, kMinQuietSessions);
  add_outcome_metrics(result, static_cast<double>(completed) / static_cast<double>(result.attempted));
}

struct Replay {
  Matrix recv;
  std::vector<std::byte> journal;
  LayerTimes layers;
  ReplayCounts counts;
  CrcProbe crc;
  std::int64_t wall_ns = 0;
};

/// One session's exchange (SessionExchange::run_phase for every phase,
/// no health layer, no injection, then take_result) re-executed one
/// public call at a time: the per-phase stepper's scan/gather/verify/
/// append, the write-ahead journal, and the strided result scatter.
Replay replay_session(const SuhShinAape& algo, const Matrix& send, WireArena& arena) {
  Replay r;
  LayerTimes& L = r.layers;
  ReplayCounts& c = r.counts;
  const std::int64_t t_start = now_ns();
  const Rank N = algo.shape().num_nodes();
  const auto views = row_views(send);
  ParcelBuffers<Word> buffers = L.time(kSeed, [&] { return seed_parcels_strided(N, views); });
  c.seeded_parcels = static_cast<std::int64_t>(N) * N;
  ParcelBuffers<Word> inbox(static_cast<std::size_t>(N));
  ExchangeJournal journal = L.time(kJournal, [&] {
    return ExchangeJournal(algo.shape(), algo.num_phases(), algo.total_steps());
  });

  struct PendingFrame {
    PooledFrame frame;
    Rank src = -1;
    Rank dst = -1;
  };
  std::vector<PendingFrame> pending;
  std::vector<std::pair<Rank, Rank>> arrivals;
  std::vector<detail::RunSpan> runs;
  std::int64_t flat_step = 0;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      pending.clear();
      arrivals.clear();
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
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
        const std::size_t run_bytes = count * sizeof(Parcel<Word>);
        PendingFrame out;
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
        out.src = p;
        out.dst = q;
        pending.push_back(std::move(out));
        c.compacted_parcels += static_cast<std::int64_t>(buf.size());
        L.time(kCompact, [&] { detail::erase_runs(buf, runs); });
      }
      for (const PendingFrame& in : pending) {
        SealedRunFrameView<Word> view;
        std::string why;
        const bool ok = L.time(kVerify, [&] {
          return decode_multi_run_frame<Word>(in.frame.view(), phase, step, in.src, in.dst, N,
                                              view, &why);
        });
        TOREX_CHECK(ok, "replayed frame failed verification: " + why);
        c.verified_bytes += static_cast<std::int64_t>(in.frame.bytes().size());
        L.time(kSplice, [&] { view.append_to(inbox[static_cast<std::size_t>(in.dst)]); });
        c.spliced_bytes += static_cast<std::int64_t>(view.payload_size());
        c.bytes_copied += static_cast<std::int64_t>(view.payload_size());
      }
      pending.clear();
      L.time(kSplice, [&] {
        for (Rank p = 0; p < N; ++p) {
          auto& in = inbox[static_cast<std::size_t>(p)];
          if (in.empty()) continue;
          auto& buf = buffers[static_cast<std::size_t>(p)];
          for (auto& parcel : in) {
            if (parcel.block.dest == p && parcel.block.origin != p) {
              arrivals.emplace_back(p, parcel.block.origin);
            }
            buf.push_back(parcel);
          }
          in.clear();
        }
      });
      c.journal_pairs += static_cast<std::int64_t>(arrivals.size());
      L.time(kJournal, [&] {
        if (!arrivals.empty()) journal.record_deliveries(flat_step, arrivals);
        journal.commit_step(flat_step);
      });
      ++flat_step;
    }
    L.time(kJournal, [&] { journal.commit_phase(phase); });
  }
  detail::check_parcel_postcondition(N, buffers);
  TOREX_CHECK(journal.exchange_complete(), "replayed journal incomplete");
  r.recv = L.time(kScatter, [&] { return scatter_rows(N, buffers); });
  c.scattered_parcels = static_cast<std::int64_t>(N) * N;
  r.journal = journal.encode();
  c.journal_bytes = static_cast<std::int64_t>(r.journal.size());
  r.wall_ns = now_ns() - t_start - r.crc.ns;  // the CRC probe is not part of the replay
  return r;
}

/// The real executor for one session, outside the manager: a
/// SessionExchange run phase by phase, each run_phase timed directly.
struct Standalone {
  Matrix recv;
  std::vector<std::byte> journal;
  std::vector<double> phase_us;
  std::int64_t wall_ns = 0;
};

Standalone run_standalone(const SuhShinAape& algo, const Matrix& send, WireArena& arena) {
  Standalone s;
  const std::int64_t t_start = now_ns();
  SessionExchange exchange(0, algo, send, arena, /*max_leased_frames=*/0);
  while (!exchange.complete()) {
    const std::int64_t t0 = now_ns();
    const PhaseOutcome outcome = exchange.run_phase(nullptr, SessionInjection{});
    s.phase_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    TOREX_CHECK(outcome == PhaseOutcome::kComplete, "standalone phase deferred");
  }
  s.journal = exchange.journal().encode();
  s.recv = exchange.take_result();
  s.wall_ns = now_ns() - t_start;
  return s;
}

void run_traced(const Options& options, const TorusShape& shape,
                const std::vector<SessionRequest>& plan, Result& result) {
  const Rank N = shape.num_nodes();
  add_build_metric(result, shape);

  // One untraced drive gives the manager-side numbers and the sample
  // session the replay must reproduce.
  const Drive first = drive(shape, plan, options.seed, nullptr, result);
  const SuhShinAape algo(shape);
  const Matrix& send = plan[static_cast<std::size_t>(first.sample)].send;
  WireArena replay_arena;
  WireArena executor_arena;
  (void)replay_session(algo, send, replay_arena);
  (void)run_standalone(algo, send, executor_arena);

  const Replay replay = replay_session(algo, send, replay_arena);
  result.check(replay.journal == first.sample_journal,
               "replayed journal bytes differ from SessionManager::journal(id).encode()");
  result.check(replay.recv == first.sample_result,
               "replayed result differs from SessionManager::take_result(id)");
  result.check(oracle_ok(options.seed, first.sample, replay.recv, N),
               "replay failed the transpose oracle");
  const auto wire_stats = [&] { return executor_arena.stats(); };
  Standalone real;
  const CallCounts counted =
      count_call(wire_stats, [&] { real = run_standalone(algo, send, executor_arena); });
  result.check(real.journal == replay.journal && real.recv == replay.recv,
               "replay differs from a standalone SessionExchange");
  check_against_wire(result, replay.counts, counted.wire, "svc_sessions");
  std::int64_t unstable = unstable_call_counts(
      counted, count_call(wire_stats, [&] { (void)run_standalone(algo, send, executor_arena); }));

  // Timed rounds: an untraced drive, a drive with a live Recorder, and
  // replays + standalone sessions, interleaved.
  std::vector<double> plain_s, recorded_s, replay_ns, session_ns, phase_us, dispatch_us;
  std::vector<LayerTimes> layer_samples;
  double submit_s = 0.0;
  std::int64_t submits = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline || replay_ns.size() < 3) {
    const Drive plain = drive(shape, plan, options.seed, nullptr, result);
    check_same_schedule(result, first, plain);
    plain_s.push_back(plain.drive_s);
    dispatch_us.insert(dispatch_us.end(), plain.dispatch_us.begin(), plain.dispatch_us.end());
    submit_s += plain.submit_s;
    submits += plain.stats.offered;
    Recorder recorder;
    const Drive recorded = drive(shape, plan, options.seed, &recorder, result);
    check_same_schedule(result, first, recorded);
    recorded_s.push_back(recorded.drive_s);
    for (int i = 0; i < 8; ++i) {
      const Replay r = replay_session(algo, send, replay_arena);
      unstable += unstable_fields(replay.counts, r.counts);
      replay_ns.push_back(static_cast<double>(r.wall_ns));
      layer_samples.push_back(r.layers);
      const Standalone s = run_standalone(algo, send, executor_arena);
      session_ns.push_back(static_cast<double>(s.wall_ns));
      phase_us.insert(phase_us.end(), s.phase_us.begin(), s.phase_us.end());
    }
  }
  add_layer_metrics(result, median_layers(layer_samples), replay.counts, replay.crc,
                    median(session_ns), median(replay_ns));
  add_call_counts(result, counted);
  const SvcStats& s = first.stats;
  result.add("svc.submit_us", submits > 0 ? submit_s / static_cast<double>(submits) * 1e6 : 0.0,
             "us");
  result.add("svc.phase_us_p50", median(phase_us), "us");
  result.add("svc.sched_us", mean(dispatch_us) - mean(phase_us), "us");
  result.add("svc.phases_executed", static_cast<double>(s.phases_executed), "count");
  result.add("svc.dispatch_us_p50", percentile(dispatch_us, 0.5), "us");
  result.add("svc.dispatch_us_p99", percentile(dispatch_us, 0.99), "us");
  double plain_total = 0.0;
  for (double v : plain_s) plain_total += v;
  result.add("svc.sessions_per_s",
             plain_total > 0 ? static_cast<double>(s.completed) *
                                   static_cast<double>(plain_s.size()) / plain_total
                             : 0.0,
             "1/s");
  result.add("svc.latency_vt_p50", percentile(first.latency_vt, 0.5), "vt");
  result.add("svc.latency_vt_p99", percentile(first.latency_vt, 0.99), "vt");
  result.add("svc.shed", static_cast<double>(s.rejected), "count");
  result.add("svc.deadline_missed", static_cast<double>(s.deadline_missed()), "count");
  result.add("obs.recorder_overhead_pct",
             100.0 * (median(recorded_s) - median(plain_s)) / median(plain_s), "%");
  result.add("replay.unstable_counts", static_cast<double>(unstable), "count");
  result.attempted = static_cast<std::int64_t>(replay_ns.size());
}

}  // namespace

bool run_svc_sessions(const Options& options, Result& result) {
  const TorusShape shape({8, 8});
  const Rank N = shape.num_nodes();
  const double parcels = static_cast<double>(N) * N;
  // Up to max_active sessions hold their parcel buffers at once.
  if (!print_environment("svc_sessions", shape.to_string(), static_cast<std::int64_t>(parcels),
                         8 * parcels * sizeof(Parcel<Word>))) {
    return false;
  }
  const double phase_cost = TorusCommunicator(shape, CostParams{}).phase_cost(sizeof(Word));
  const std::vector<SessionRequest> plan = make_plan(options.seed, N, phase_cost, kSessions);
  if (options.trace) {
    run_traced(options, shape, plan, result);
  } else {
    run_end_to_end(options, shape, plan, result);
  }
  return true;
}

}  // namespace perfbench
