// Incremental per-phase execution of one session's exchange.
//
// The journaled executor (runtime/journal.hpp) runs a whole exchange in
// one call; the weighted-fair scheduler needs to interleave *phases*
// from different sessions. SessionExchange is the journaled data path
// re-cut at phase granularity: each run_phase() call executes exactly
// one Suh-Shin phase's steps, each through the same framed stepper
// and write-ahead tail as the journaled executor (journal flush before
// every step commit, cooperative cancel polled at the step boundary and
// inside the flush/commit window), then returns control to the
// scheduler. State between calls lives in the object, so a session can
// sit unscheduled for arbitrarily long between phases while other
// tenants use the engine.
//
// Isolation properties the manager relies on:
//  * every frame a step leased from the shared arena is back in it
//    before any throw (crash, corruption, quota, cancel) unwinds, so a
//    failing session cannot leak frames into other tenants' budget
//    (WirePoolStats::outstanding_frames() stays balanced);
//  * the journal is per-session: a victim's partial journal decodes and
//    resumes independently of every other session's;
//  * tenant frame quotas are enforced at lease time, before the arena
//    is touched, so a quota breach costs the breaching session only.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "core/wire_buffer.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/journal.hpp"
#include "sim/fault_model.hpp"
#include "svc/health_registry.hpp"
#include "svc/session.hpp"

namespace torex {

/// The service-level health view one phase executes under: ground-truth
/// service faults on the manager's fault tick axis, the shared breaker
/// registry, and the global retry token bucket. Default-constructed
/// (inactive) when the manager runs without a health layer — the data
/// path is then byte-for-byte the PR 6 behavior.
struct HealthContext {
  const FaultModel* faults = nullptr;  ///< service ground truth (may be empty)
  HealthRegistry* registry = nullptr;
  RetryBudget* budget = nullptr;
  std::int64_t tick = 0;  ///< the manager's fault tick for this dispatch

  bool active() const { return registry != nullptr; }
};

/// What a run_phase dispatch did. kDeferred means the retry budget
/// refused the retransmissions a faulted step needs: nothing was
/// mutated for that step, and the next dispatch resumes exactly there
/// (retries queue rather than fire).
enum class PhaseOutcome {
  kComplete,  ///< the phase ran to its commit marker
  kDeferred,  ///< re-queue: budget denied, state untouched at the step
};

/// One session's exchange, executable one phase at a time. The service
/// payload is fixed to one machine word.
class SessionExchange {
 public:
  /// Seeds the canonical parcel buffers from `send` (must be N x N for
  /// the schedule's node count) and binds a fresh per-session journal.
  /// `algo` and `arena` must outlive the exchange; `max_leased_frames`
  /// is the tenant's arena-frame quota (0 = unlimited). `flight`, when
  /// non-null, receives per-step black-box notes (including one at the
  /// exact phase/step of any throw) under this session's id.
  SessionExchange(SessionId id, const SuhShinAape& algo,
                  const std::vector<std::vector<std::int64_t>>& send, WireArena& arena,
                  std::int64_t max_leased_frames, FlightRecorder* flight = nullptr);

  /// Strided-view seed (Träff-style datatypes): parcels are read
  /// straight out of the caller's buffers through per-node
  /// StridedViews — no dense staging rows. send[p].at(q) is node p's
  /// word for destination q.
  SessionExchange(SessionId id, const SuhShinAape& algo,
                  const std::vector<StridedView<const std::int64_t>>& send, WireArena& arena,
                  std::int64_t max_leased_frames, FlightRecorder* flight = nullptr);

  int num_phases() const { return algo_->num_phases(); }
  int phases_done() const { return phases_done_; }
  bool complete() const { return phases_done_ == num_phases(); }
  /// Parcels this session's verified frames carried so far.
  std::int64_t sent_parcels() const { return stepper_.seal.report.parcels; }
  /// Retry-budget tokens this session's discoveries drew (per-tenant
  /// spend attribution for the SLO ledger).
  std::int64_t resent_parcels() const { return resent_parcels_; }
  /// Most arena frames this session held leased at once.
  std::int64_t peak_leased_frames() const { return peak_leased_; }
  const ExchangeJournal& journal() const { return journal_; }

  /// Executes the next phase's steps. Throws ExchangeCancelledError
  /// when `cancel` is observed at a step boundary or in the
  /// flush/commit window, ExchangeCrashError / SessionIntegrityError /
  /// SessionQuotaError per `inject` and the frame quota, and
  /// SessionFaultError when a faulted/quarantined route has no detour.
  /// After a throw the exchange is dead (the journal keeps everything
  /// flushed so far); the manager retires the session.
  ///
  /// With an active `health` context every step runs a pre-flight gate
  /// before any buffer is touched: scheduled routes are checked against
  /// the breaker registry and the service fault model; discovery
  /// retries draw from the global budget (denial returns kDeferred —
  /// the step is untouched and a later dispatch resumes it); messages
  /// over bad resources are rerouted (or remap-hosted when an endpoint
  /// is quarantined), with the detours accounted in the registry.
  PhaseOutcome run_phase(const std::atomic<bool>* cancel, const SessionInjection& inject,
                         const HealthContext& health = {});

  /// recv[q][p] = send[p][q]; requires complete(). Consumes the
  /// buffers.
  std::vector<std::vector<std::int64_t>> take_result();

  /// Strided-view result: scatters delivered parcels straight into the
  /// caller's buffers (recv[q].at(p) = send[p].at(q)); requires
  /// complete(). Consumes the buffers and releases their storage.
  void take_result_into(const std::vector<StridedView<std::int64_t>>& recv);

 private:
  /// Pre-mutation health check for one step. Returns false to defer
  /// (budget denied); throws SessionFaultError when no detour exists.
  bool health_gate(int phase, int step, const HealthContext& health);

  /// Black-box note at (phase, step); no-op without a recorder.
  void flight_note(const char* name, const HealthContext& health, int phase, int step,
                   std::int64_t value = 0);

  SessionId id_;
  const SuhShinAape* algo_;
  FlightRecorder* flight_ = nullptr;
  std::int64_t frame_quota_;
  ParcelBuffers<std::int64_t> buffers_;
  /// Zero retransmit budget: a refused frame ends the session.
  detail::FramedStepper<std::int64_t> stepper_;
  std::vector<std::pair<Rank, Rank>> arrivals_;  ///< write-ahead scratch
  ExchangeJournal journal_;
  std::int64_t flat_step_ = 0;  // 0-based global step index
  int phases_done_ = 0;
  int next_step_ = 1;  ///< deferred-phase resume point (1-based in-phase)
  std::int64_t resent_parcels_ = 0;
  std::int64_t peak_leased_ = 0;
};

}  // namespace torex
