// MPI-flavored collective facade over the simulated torus.
//
// Downstream users do not want to assemble schedules by hand; they want
//   recv = comm.alltoall(send)
// with the library choosing the right algorithm the way tuned MPI
// collectives do. TorusCommunicator prices the implemented algorithms
// (Suh-Shin, ring, direct, Bruck) with the paper's model and picks the
// cheapest for the given block size (kAuto), or runs a caller-forced
// choice.
//
// The Suh-Shin path executes the real schedule over the payloads; the
// other paths apply the (identical) permutation result and are
// distinguished by their cost estimates — this is a simulator, so
// "time" always comes from the model, never from the wall clock.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/bruck.hpp"
#include "baselines/direct_exchange.hpp"
#include "baselines/ring_exchange.hpp"
#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/virtual_torus.hpp"
#include "costmodel/models.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/recovery.hpp"
#include "sim/cost_simulator.hpp"
#include "sim/fault_model.hpp"

namespace torex {

/// Selectable all-to-all implementations.
enum class AlltoallAlgorithm {
  kAuto,
  kSuhShin,        ///< the paper's schedule (shape must qualify)
  kSuhShinPadded,  ///< the paper's schedule via §6 virtual-node padding
  kRing,
  kDirect,
  kBruck,
};

std::string to_string(AlltoallAlgorithm algorithm);

/// How the end-to-end integrity check of a checked exchange ended.
enum class IntegrityStatus {
  kClean,      ///< every seal verified on first delivery
  kCorrected,  ///< corruption detected and repaired by retransmission
  kEscalated,  ///< retransmit budget exhausted; escalated into recovery
};

std::string to_string(IntegrityStatus status);

/// The IntegrityFailure branch of an outcome: where a checked exchange
/// exhausted its retransmit budget before escalating into the recovery
/// chain.
struct IntegrityFailure {
  int phase = 0;  ///< 1-based schedule coordinates of the fatal step
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  std::int64_t tick = 0;        ///< fault tick of the last failed attempt
  int retransmits = 0;          ///< attempts spent on the fatal message
  std::string description;      ///< verifier's rejection, human-readable
};

/// What a (possibly fault-recovered) exchange actually did. Returned by
/// alltoall_resilient instead of a bare throw: the caller learns which
/// algorithm moved the data, which recovery policy ran, and what the
/// recovery cost (retries, waits, remaps, detours).
struct ExchangeOutcome {
  AlltoallAlgorithm requested = AlltoallAlgorithm::kAuto;
  AlltoallAlgorithm algorithm = AlltoallAlgorithm::kAuto;  ///< what actually ran
  RecoveryPolicy requested_policy = RecoveryPolicy::kAuto;
  RecoveryPolicy policy = RecoveryPolicy::kNone;  ///< recovery path that ran (kNone = healthy)
  int attempts = 1;             ///< fault audits performed, including the first
  int retries = 0;              ///< backoff waits taken
  std::int64_t waited_ticks = 0;
  std::int64_t run_tick = 0;    ///< fault tick the exchange executed at
  bool degraded = false;        ///< realized something other than the healthy plan
  std::int64_t remapped_nodes = 0;
  std::int64_t rerouted_messages = 0;
  std::int64_t extra_hops = 0;  ///< detour hops added over the healthy routes
  double modeled_time = 0.0;    ///< modeled completion time of what ran
  std::string note;             ///< human-readable recovery chain

  // Filled by alltoall_checked (the integrity-verified entry point).
  IntegrityStatus integrity = IntegrityStatus::kClean;
  std::int64_t corrupted_messages = 0;  ///< deliveries rejected by seal checks
  std::int64_t retransmits = 0;         ///< retransmissions performed
  int escalations = 0;                  ///< integrity failures escalated into recovery
  /// Present when integrity == kEscalated: the failure that triggered
  /// the (last) escalation.
  std::optional<IntegrityFailure> integrity_failure;

  // Filled by alltoall_resumable (the journaled entry point).
  /// Delta-resume accounting of the journaled run that moved the data.
  std::optional<ResumeReport> resume;
  /// Nodes the heartbeat failure detector suspected before planning.
  int suspected_nodes = 0;
  /// Latest suspicion transition tick (-1 when nothing was suspected).
  std::int64_t suspicion_tick = -1;
  /// Suspicion landed strictly before the tick-axis watchdog deadline,
  /// i.e. recovery started proactively instead of stall-then-cancel.
  bool proactive_recovery = false;

  std::string summary() const;
};

/// Escalation bridge from the integrity layer into the fault model:
/// walks the fatal violation's channel path through `corruption` and
/// adds every implicated corrupting channel to `faults` as a channel
/// fault (inheriting the corruption's active window), so the recovery
/// planner routes around it. Returns false when no new fault was added
/// (the corruption cannot be attributed to a modeled channel).
bool add_corruption_as_faults(const Torus& torus, const CorruptionModel& corruption,
                              const IntegrityViolation& fatal, FaultModel& faults);

/// Options for the fault-aware alltoall entry point.
struct ResilienceOptions {
  AlltoallAlgorithm algorithm = AlltoallAlgorithm::kAuto;
  RecoveryPolicy policy = RecoveryPolicy::kAuto;
  BackoffConfig backoff{};
  std::int64_t start_tick = 0;   ///< fault tick the first attempt starts at
  std::int64_t block_bytes = 0;  ///< 0: use sizeof(T)
  /// Optional telemetry sink: plan/execute/verify/escalate spans plus
  /// integrity and recovery counters.
  Recorder* obs = nullptr;
};

/// Options for the crash-durable (journaled) alltoall entry point.
struct ResumeOptions {
  ResilienceOptions resilience;
  /// Heartbeat failure detector tuning; the detector runs whenever the
  /// fault model contains node faults (crashes).
  FailureDetectorOptions detector;
  /// Tick-axis analogue of the runtimes' wall-clock stall deadline: the
  /// horizon the failure detector observes heartbeats over, and the
  /// bar its suspicion must beat for outcome.proactive_recovery.
  std::int64_t stall_deadline_ticks = 64;
  /// Simulated process death for tests/tools (see runtime/journal.hpp);
  /// only honored on the scheduled (non-degraded) path.
  CrashPoint crash;
  /// Cooperative cancel, polled between journal flush and step commit.
  const std::atomic<bool>* cancel = nullptr;
  /// Durability hook: persist journal.encode() here on every flush.
  std::function<void(const ExchangeJournal&)> flush;

  /// Rejects invalid backoff/detector/deadline settings with
  /// std::invalid_argument before any data moves.
  void validate() const;
};

/// Collective context bound to one torus and one parameter set.
class TorusCommunicator {
 public:
  TorusCommunicator(TorusShape shape, CostParams params);

  const TorusShape& shape() const { return shape_; }
  Rank size() const { return shape_.num_nodes(); }

  /// True when the Suh-Shin schedule applies directly (>= 2 dims,
  /// multiples of four, sorted non-increasing).
  bool suh_shin_applicable() const;

  /// Estimated completion time of one algorithm for m-byte blocks.
  CostBreakdown estimate(AlltoallAlgorithm algorithm, std::int64_t block_bytes) const;

  /// Modeled time of one Suh-Shin phase for m-byte blocks (the full
  /// estimate spread evenly over the schedule's phases). This is the
  /// price the service layer charges a session's virtual-time account
  /// per executed phase, and the unit its deadline arithmetic uses.
  /// Requires a qualifying shape.
  double phase_cost(std::int64_t block_bytes) const;

  /// The algorithm kAuto resolves to for this block size.
  AlltoallAlgorithm select(std::int64_t block_bytes) const;

  /// Cumulative wire statistics (frame pool hits/misses, bytes copied,
  /// §3.3 run accounting) of every exchange this communicator has run.
  const WirePoolStats& wire_stats() const { return wire_arena_.stats(); }

  /// All-to-all personalized exchange: send[p][q] is node p's payload
  /// for node q; returns recv with recv[q][p] == send[p][q]. The
  /// estimated time of the run is written to `modeled_time` when
  /// non-null.
  template <typename T>
  std::vector<std::vector<T>> alltoall(const std::vector<std::vector<T>>& send,
                                       AlltoallAlgorithm algorithm = AlltoallAlgorithm::kAuto,
                                       std::int64_t block_bytes = sizeof(T),
                                       double* modeled_time = nullptr,
                                       Recorder* obs = nullptr) const {
    const Rank N = size();
    TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "send buffer must have N rows");
    for (const auto& row : send) {
      TOREX_REQUIRE(static_cast<Rank>(row.size()) == N, "send rows must have N entries");
    }
    if (obs != nullptr && !obs->enabled()) obs = nullptr;
    SpanGuard alltoall_span(obs, "alltoall");
    AlltoallAlgorithm chosen =
        algorithm == AlltoallAlgorithm::kAuto ? select(block_bytes) : algorithm;
    if (modeled_time != nullptr) *modeled_time = estimate(chosen, block_bytes).total();

    if (chosen == AlltoallAlgorithm::kSuhShin) {
      TOREX_REQUIRE(schedule_.has_value(),
                    "Suh-Shin schedule not applicable to this shape (pad or pick another "
                    "algorithm)");
      const SuhShinAape& algo = *schedule_;
      // Dense rows are stride-1 views: the same seed/scatter path the
      // strided API uses, with no extra staging in between.
      ParcelBuffers<T> parcels = seed_parcels_strided(N, detail::dense_views(send));
      // Trivially copyable payloads ride the pooled zero-copy wire
      // (frames recycle through the communicator's arena across
      // exchanges); other types fall back to the struct-move executor.
      ParcelBuffers<T> delivered;
      if constexpr (std::is_trivially_copyable_v<Parcel<T>>) {
        delivered = detail::exchange_payloads_pooled_planned(
            algo, std::move(parcels), {.arena = &wire_arena_, .obs = obs}, &pooled_plan_);
      } else {
        delivered = exchange_payloads(algo, std::move(parcels), obs);
      }
      SpanGuard permute_span(obs, "permute");
      return scatter_rows(delivered);
    }

    if (chosen == AlltoallAlgorithm::kSuhShinPadded) {
      // Run the padded (virtual-torus) schedule over the payloads:
      // parcels seeded at the primary virtual ranks, results read back
      // by physical rank.
      const VirtualTorusAape padded(shape_);
      const SuhShinAape& algo = padded.schedule();
      const TorusShape& vshape = padded.virtual_shape();
      // physical rank -> primary virtual rank.
      std::vector<Rank> to_virtual(static_cast<std::size_t>(N), -1);
      for (Rank v = 0; v < vshape.num_nodes(); ++v) {
        if (padded.is_primary(v)) to_virtual[static_cast<std::size_t>(padded.host_of(v))] = v;
      }
      ParcelBuffers<T> parcels(static_cast<std::size_t>(vshape.num_nodes()));
      for (Rank p = 0; p < N; ++p) {
        const Rank vp = to_virtual[static_cast<std::size_t>(p)];
        auto& buf = parcels[static_cast<std::size_t>(vp)];
        for (Rank q = 0; q < N; ++q) {
          buf.push_back({Block{vp, to_virtual[static_cast<std::size_t>(q)]},
                         send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]});
        }
      }
      const auto delivered = exchange_parcels_custom(algo, std::move(parcels));
      std::vector<std::vector<T>> recv(static_cast<std::size_t>(N));
      for (Rank q = 0; q < N; ++q) {
        auto& row = recv[static_cast<std::size_t>(q)];
        row.resize(static_cast<std::size_t>(N));
        const Rank vq = to_virtual[static_cast<std::size_t>(q)];
        for (const auto& parcel : delivered[static_cast<std::size_t>(vq)]) {
          row[static_cast<std::size_t>(padded.host_of(parcel.block.origin))] = parcel.payload;
        }
      }
      return recv;
    }

    // Ring / direct / Bruck: same permutation, different (already
    // reported) modeled time.
    std::vector<std::vector<T>> recv(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) {
      auto& row = recv[static_cast<std::size_t>(q)];
      row.reserve(static_cast<std::size_t>(N));
      for (Rank p = 0; p < N; ++p) {
        row.push_back(send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]);
      }
    }
    return recv;
  }

  /// Zero-copy strided all-to-all (Träff-style user-defined
  /// datatypes): parcels seed straight out of the caller's memory
  /// through per-node send views and results scatter straight back
  /// through the recv views — no dense staging rows on either side,
  /// so a column of a row-major matrix (stride = row length)
  /// exchanges without ever being transposed into a contiguous copy.
  /// send[p].at(q) is node p's payload for node q; on return
  /// recv[q].at(p) == send[p].at(q). Requires the Suh-Shin schedule
  /// (throws where alltoall would) and a trivially copyable T; rides
  /// the pooled multi-run wire unconditionally.
  template <typename T>
  void alltoall_strided(const std::vector<StridedView<const T>>& send,
                        const std::vector<StridedView<T>>& recv,
                        Recorder* obs = nullptr) const {
    static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                  "strided alltoall requires trivially copyable payloads");
    const Rank N = size();
    TOREX_REQUIRE(schedule_.has_value(),
                  "Suh-Shin schedule not applicable to this shape (pad or pick another "
                  "algorithm)");
    if (obs != nullptr && !obs->enabled()) obs = nullptr;
    SpanGuard alltoall_span(obs, "alltoall_strided");
    WireExchangeOptions wire_options;
    wire_options.arena = &wire_arena_;
    wire_options.obs = obs;
    const auto delivered = detail::exchange_payloads_pooled_planned(
        *schedule_, seed_parcels_strided(N, send), wire_options, &pooled_plan_);
    SpanGuard scatter_span(obs, "scatter");
    scatter_parcels_strided(N, delivered, recv);
  }

  /// Fault-aware all-to-all. Audits the chosen schedule against
  /// `faults` and, when impacted, recovers per `options.policy`
  /// (retry/backoff for transient faults, degraded remap of the
  /// Suh-Shin schedule, or the fault-tolerant direct fallback) instead
  /// of throwing. `outcome` reports what ran; the returned permutation
  /// is identical to the healthy alltoall. Throws FaultedExchangeError
  /// only when recovery is disabled (RecoveryPolicy::kNone) or the
  /// faults disconnect the live nodes.
  template <typename T>
  std::vector<std::vector<T>> alltoall_resilient(const std::vector<std::vector<T>>& send,
                                                 const FaultModel& faults,
                                                 ExchangeOutcome& outcome,
                                                 const ResilienceOptions& options = {}) const {
    const std::int64_t bytes =
        options.block_bytes > 0 ? options.block_bytes : static_cast<std::int64_t>(sizeof(T));
    Recorder* obs = options.obs != nullptr && options.obs->enabled() ? options.obs : nullptr;
    SpanGuard resilient_span(obs, "alltoall_resilient");
    {
      SpanGuard plan_span(obs, "plan");
      outcome = plan_resilient(faults, options, bytes);
    }
    return alltoall(send, outcome.algorithm, bytes, nullptr, obs);
  }

  /// Planning half of alltoall_resilient: audit + recovery decision +
  /// pricing, no data movement. Exposed for tools and benches that
  /// compare policies without running payloads.
  ExchangeOutcome plan_resilient(const FaultModel& faults, const ResilienceOptions& options,
                                 std::int64_t block_bytes) const;

  /// Self-checking all-to-all: alltoall_resilient plus end-to-end data
  /// integrity. When the Suh-Shin schedule runs, every message crosses
  /// the simulated wire as a sealed TOX3 frame (header and frame
  /// CRC-32 over the step/channel metadata and the parcel runs), may be
  /// damaged by `corruption`, and is verified before integration;
  /// detected corruption is repaired by bounded retransmission
  /// (kCorrected). A message that stays corrupt past its budget
  /// escalates: the corrupting channels are added to the fault model as
  /// channel faults and the exchange re-plans through the PR-1 recovery
  /// chain (kEscalated, outcome.integrity_failure attributes the step).
  /// The returned permutation is always exact; persistent corruption
  /// that cannot be attributed rethrows the IntegrityError, and
  /// RecoveryPolicy::kNone turns escalation into FaultedExchangeError.
  template <typename T>
  std::vector<std::vector<T>> alltoall_checked(const std::vector<std::vector<T>>& send,
                                               const FaultModel& faults,
                                               const CorruptionModel& corruption,
                                               ExchangeOutcome& outcome,
                                               const ResilienceOptions& options = {},
                                               const IntegrityOptions& integrity = {}) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "checked exchange requires trivially copyable payloads");
    const Rank N = size();
    TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "send buffer must have N rows");
    for (const auto& row : send) {
      TOREX_REQUIRE(static_cast<Rank>(row.size()) == N, "send rows must have N entries");
    }
    const std::int64_t bytes =
        options.block_bytes > 0 ? options.block_bytes : static_cast<std::int64_t>(sizeof(T));
    Recorder* obs = options.obs != nullptr && options.obs->enabled() ? options.obs : nullptr;
    SpanGuard checked_span(obs, "alltoall_checked");
    FaultModel effective = faults;
    std::int64_t corrupted = 0;
    std::int64_t retransmits = 0;
    int escalations = 0;
    // Recovery work spent by abandoned rounds; folded into each fresh
    // plan so the final outcome reports the whole exchange's history.
    int prior_attempts = 0;
    int prior_retries = 0;
    std::int64_t prior_waited = 0;
    std::optional<IntegrityFailure> failure;
    const Torus torus(shape_);
    // Each escalation converts at least one corrupting channel into a
    // channel fault, so the loop ends within |corruption| rounds.
    while (true) {
      {
        SpanGuard plan_span(obs, "plan");
        outcome = plan_resilient(effective, options, bytes);
      }
      outcome.attempts += prior_attempts;
      outcome.retries += prior_retries;
      outcome.waited_ticks += prior_waited;
      outcome.integrity = escalations > 0 ? IntegrityStatus::kEscalated : IntegrityStatus::kClean;
      outcome.corrupted_messages = corrupted;
      outcome.retransmits = retransmits;
      outcome.escalations = escalations;
      outcome.integrity_failure = failure;
      if (outcome.algorithm != AlltoallAlgorithm::kSuhShin || outcome.degraded ||
          !schedule_.has_value()) {
        // Degraded/baseline realizations are permutation-level
        // simulations (see alltoall) — a remapped plan does not run the
        // pristine schedule, so nothing crosses the sealed wire.
        return alltoall(send, outcome.algorithm, bytes, nullptr, obs);
      }
      IntegrityOptions iopts = integrity;
      iopts.base_tick = outcome.run_tick;
      try {
        IntegrityReport report;
        SpanGuard verify_span(obs, "verify");
        if (iopts.arena == nullptr) iopts.arena = &wire_arena_;
        auto recv = scatter_rows(detail::exchange_payloads_sealed_planned(
            *schedule_, seed_parcels_strided(size(), detail::dense_views(send)),
            corruption.tamperer(schedule_->torus()), iopts, &report, obs, &sealed_plan_));
        outcome.corrupted_messages += report.corrupted;
        outcome.retransmits += report.retransmits;
        if (outcome.integrity == IntegrityStatus::kClean && !report.clean()) {
          outcome.integrity = IntegrityStatus::kCorrected;
          outcome.note += "; corruption detected and corrected by retransmission";
        }
        return recv;
      } catch (const IntegrityError& error) {
        const IntegrityReport& report = error.report();
        corrupted += report.corrupted;
        retransmits += report.retransmits;
        prior_attempts = outcome.attempts;
        prior_retries = outcome.retries;
        prior_waited = outcome.waited_ticks;
        TOREX_CHECK(report.fatal.has_value(), "integrity error without a fatal violation");
        if (!add_corruption_as_faults(torus, corruption, *report.fatal, effective)) {
          throw;  // unattributable persistent corruption: refuse loudly
        }
        ++escalations;
        if (obs != nullptr) {
          obs->instant("escalate", report.fatal->dst, report.fatal->phase, report.fatal->step,
                       escalations);
          obs->metrics().counter("integrity.escalations").add();
        }
        failure = IntegrityFailure{report.fatal->phase,   report.fatal->step,
                                   report.fatal->src,     report.fatal->dst,
                                   report.fatal->tick,    report.fatal->attempt,
                                   report.fatal->reason};
      }
    }
  }

  /// Crash-durable all-to-all: a journaled run whose progress survives
  /// process death. Every schedule step appends a CRC-sealed delivery
  /// record + commit marker to `journal` (persist it via options.flush);
  /// passing a journal with prior progress resumes the exchange,
  /// replaying the committed prefix locally and re-sending only parcels
  /// undelivered at the kill point, with re-received durable parcels
  /// deduplicated (exactly-once). When the fault model carries node
  /// faults, the heartbeat failure detector runs first — its fd.suspect
  /// spans precede the recovery.attempt spans of planning — and the
  /// outcome reports whether suspicion beat the tick watchdog deadline.
  /// Degraded plans (crashed nodes) deliver the delta directly, still
  /// journaled. Requires a qualifying (Suh-Shin) shape and copyable T.
  template <typename T>
  std::vector<std::vector<T>> alltoall_resumable(const std::vector<std::vector<T>>& send,
                                                 const FaultModel& faults,
                                                 ExchangeJournal& journal,
                                                 ExchangeOutcome& outcome,
                                                 const ResumeOptions& options = {}) const {
    options.validate();
    const Rank N = size();
    TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "send buffer must have N rows");
    for (const auto& row : send) {
      TOREX_REQUIRE(static_cast<Rank>(row.size()) == N, "send rows must have N entries");
    }
    TOREX_REQUIRE(schedule_.has_value(),
                  "resumable exchange requires the Suh-Shin schedule (qualifying shape)");
    const std::int64_t bytes = options.resilience.block_bytes > 0
                                   ? options.resilience.block_bytes
                                   : static_cast<std::int64_t>(sizeof(T));
    Recorder* obs = options.resilience.obs != nullptr && options.resilience.obs->enabled()
                        ? options.resilience.obs
                        : nullptr;
    SpanGuard resumable_span(obs, "alltoall_resumable");

    // Failure detection happens before planning so the fd.suspect spans
    // land ahead of the recovery.attempt spans they trigger.
    int suspected_nodes = 0;
    std::int64_t suspicion_tick = -1;
    bool ran_detector = false;
    bool node_faults = false;
    for (const auto& spec : faults.specs()) {
      node_faults = node_faults || spec.kind == FaultKind::kNode;
    }
    if (node_faults) {
      ran_detector = true;
      HeartbeatFailureDetector detector(N, options.detector, obs);
      const auto suspicions =
          detector.observe_heartbeats(faults, options.stall_deadline_ticks);
      suspected_nodes = static_cast<int>(suspicions.size());
      for (const auto& suspicion : suspicions) {
        suspicion_tick = std::max(suspicion_tick, suspicion.suspected_at);
      }
    }

    {
      SpanGuard plan_span(obs, "plan");
      outcome = plan_resilient(faults, options.resilience, bytes);
    }
    outcome.suspected_nodes = suspected_nodes;
    outcome.suspicion_tick = suspicion_tick;
    outcome.proactive_recovery = ran_detector && suspected_nodes > 0 &&
                                 suspicion_tick < options.stall_deadline_ticks;
    if (ran_detector) {
      outcome.note += "; failure detector suspected " + std::to_string(suspected_nodes) +
                      " node(s)" +
                      (suspected_nodes > 0
                           ? " by tick " + std::to_string(suspicion_tick) +
                                 (outcome.proactive_recovery ? " (before the watchdog deadline "
                                  : " (at/after the watchdog deadline ") +
                                 std::to_string(options.stall_deadline_ticks) + ")"
                           : "");
    }

    ParcelBuffers<T> parcels = seed_parcels_strided(N, detail::dense_views(send));
    JournalRunOptions run_options{.crash = options.crash, .cancel = options.cancel,
                                  .flush = options.flush, .obs = obs, .wire = &wire_arena_};
    ResumeReport report;
    ParcelBuffers<T> delivered;
    if (outcome.algorithm == AlltoallAlgorithm::kSuhShin && !outcome.degraded) {
      delivered = exchange_payloads_journaled(*schedule_, std::move(parcels), journal,
                                              run_options, report);
    } else {
      // Degraded plan: the schedule is abandoned, but the journal stays
      // the source of truth — deliver the undelivered delta directly.
      run_options.crash = CrashPoint{};  // crash injection is schedule-granular
      delivered = exchange_payloads_direct_journaled(*schedule_, std::move(parcels), journal,
                                                     run_options, report);
    }
    outcome.resume = report;

    SpanGuard permute_span(obs, "permute");
    return scatter_rows(delivered);
  }

  /// Resumes an interrupted exchange from its journal: requires
  /// recorded progress (a fresh run belongs to alltoall_resumable).
  /// The send buffers must be the same ones the original run used.
  template <typename T>
  std::vector<std::vector<T>> resume(const std::vector<std::vector<T>>& send,
                                     const FaultModel& faults, ExchangeJournal& journal,
                                     ExchangeOutcome& outcome,
                                     const ResumeOptions& options = {}) const {
    TOREX_REQUIRE(journal.bound() && !journal.fresh(),
                  "resume requires a journal with recorded progress");
    return alltoall_resumable(send, faults, journal, outcome, options);
  }

 private:
  /// Delivered parcels as dense rows, recv[q][origin], scattered
  /// through stride-1 views.
  template <typename T>
  std::vector<std::vector<T>> scatter_rows(const ParcelBuffers<T>& delivered) const {
    const auto N = static_cast<std::size_t>(size());
    std::vector<std::vector<T>> recv(N, std::vector<T>(N));
    scatter_parcels_strided(size(), delivered, detail::dense_views(recv));
    return recv;
  }

  TorusShape shape_;
  CostParams params_;
  /// Built once in the constructor when the shape qualifies; reused by
  /// every alltoall/estimate call.
  std::optional<SuhShinAape> schedule_;
  /// Frame pool shared by every exchange this communicator runs, so
  /// wire buffers recycle across calls and the pool/traffic statistics
  /// accumulate per communicator. Mutable because the collectives are
  /// logically const; concurrent calls on one communicator were never
  /// supported (each thread should own its communicator or engine).
  mutable WireArena wire_arena_;
  /// Send plans (detail::SendPlan) recorded by the first call down each
  /// Suh-Shin wire path and replayed by every later one: the pooled
  /// §3.3 path (alltoall and alltoall_strided seed in the same
  /// destination order) and the sealed path (alltoall_checked).
  mutable detail::SendPlan pooled_plan_;
  mutable detail::SendPlan sealed_plan_;
};

}  // namespace torex
