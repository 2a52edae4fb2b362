#include "svc/session_exchange.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace torex {

namespace {

using Word = std::int64_t;

/// The injected corruption: one flipped run-table bit, which the frame
/// CRC refuses. The session's seal has no retransmit budget, so the
/// first refused frame ends the exchange and the flip fires once.
const ParcelTamperer kFlipRunTableBit = [](const TransferContext&, std::vector<std::byte>& frame) {
  frame[detail::kFrameV3HeaderBytes] ^= std::byte{0x01};
  return true;
};

}  // namespace

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo,
                                 const std::vector<std::vector<Word>>& send, WireArena& arena,
                                 std::int64_t max_leased_frames, FlightRecorder* flight)
    : SessionExchange(id, algo, detail::dense_views(send), arena, max_leased_frames, flight) {}

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo,
                                 const std::vector<StridedView<const Word>>& send,
                                 WireArena& arena, std::int64_t max_leased_frames,
                                 FlightRecorder* flight)
    : id_(id), algo_(&algo), flight_(flight), frame_quota_(max_leased_frames),
      stepper_(algo, arena, detail::FramePlacement::kAppend) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "session send buffer must have N rows");
  buffers_ = seed_parcels_strided(N, send);
  journal_ = ExchangeJournal(algo.shape(), algo.num_phases(), algo.total_steps());
}

void SessionExchange::flight_note(const char* name, const HealthContext& health, int phase,
                                  int step, std::int64_t value) {
  if (flight_ != nullptr) flight_->note(id_, name, health.tick, phase, step, value);
}

bool SessionExchange::health_gate(int phase, int step, const HealthContext& health) {
  const Rank N = algo_->shape().num_nodes();
  const Torus& torus = algo_->torus();
  HealthRegistry& registry = *health.registry;
  const std::int64_t tick = health.tick;

  // Planning view: ground-truth service faults plus everything the
  // registry has quarantined. Detours route against this model, so a
  // reroute never lands on another known-bad resource.
  FaultModel avoid = health.faults != nullptr ? *health.faults : FaultModel{};
  registry.add_quarantine(avoid, tick);

  const int hops = algo_->hops_per_step(phase);
  std::vector<ChannelId> route;
  for (Rank p = 0; p < N; ++p) {
    const auto& buf = buffers_[static_cast<std::size_t>(p)];
    const SuhShinAape::SendTest sends = algo_->send_test(p, phase, step);
    const auto parcels = static_cast<std::int64_t>(std::count_if(
        buf.begin(), buf.end(), [&](const Parcel<Word>& x) { return sends(x.block); }));
    if (parcels == 0) continue;
    const Rank q = algo_->partner(p, phase, step);

    // §6 remap hosting: a message whose endpoint is dead or
    // quarantined is hosted by the surviving neighbor the remap
    // assigns — the exchange proceeds, the registry accounts it.
    if (avoid.node_relevant_failed(p, tick) || avoid.node_relevant_failed(q, tick)) {
      registry.note_remap_hosted();
      flight_note("health.remap_hosted", health, phase, step, q);
      continue;
    }

    route.clear();
    torus.straight_path(p, algo_->direction(p, phase, step), hops, route);
    bool needs_detour = false;
    for (const ChannelId id : route) {
      if (registry.channel_quarantined(id, tick)) {
        // Someone already paid the discovery: reroute immediately, no
        // retries, no chain walk — first-discoverer-heals-all.
        registry.note_quarantine_hit();
        flight_note("health.quarantine_hit", health, phase, step, id);
        needs_detour = true;
        continue;
      }
      if (health.faults == nullptr || !health.faults->channel_failed(torus, id, tick)) {
        continue;
      }
      // A live, undiscovered fault: this session is the discoverer.
      // Each retransmission attempt draws the message's parcel count
      // from the global budget; denial defers the whole step (nothing
      // mutated yet) so the retries queue instead of firing.
      while (!registry.channel_quarantined(id, tick)) {
        if (health.budget != nullptr && !health.budget->try_acquire(parcels)) {
          registry.note_deferral();
          flight_note("health.deferred", health, phase, step, parcels);
          return false;
        }
        registry.note_resent(parcels);
        resent_parcels_ += parcels;
        flight_note("health.resent", health, phase, step, parcels);
        const auto fault = health.faults->find_channel_fault(torus, id, tick);
        const std::string why =
            fault.has_value() ? fault->describe(torus) : "unattributed send failure";
        if (registry.record_channel_error(id, tick, why)) {
          // The breaker tripped on our error: we are the first
          // discoverer and walk the degradation chain (retry ->
          // reroute/remap) exactly once, publishing the verdict.
          registry.note_chain_walk(id);
          flight_note("health.breaker_trip", health, phase, step, id);
        }
      }
      needs_detour = true;
    }
    if (!needs_detour) continue;

    // The quarantined channels are already failed in `avoid` (either a
    // service fault or add_quarantine above), so BFS plans past them.
    auto path = route_around_faults(torus, avoid, p, q, tick);
    if (!path.has_value()) {
      flight_note("health.unroutable", health, phase, step, q);
      throw SessionFaultError(id_, phase, step,
                              "no detour from node " + std::to_string(p) + " to node " +
                                  std::to_string(q) + " around quarantined resources");
    }
    registry.note_reroute(static_cast<std::int64_t>(path->size()) - hops);
    flight_note("health.reroute", health, phase, step,
                static_cast<std::int64_t>(path->size()) - hops);
  }
  return true;
}

PhaseOutcome SessionExchange::run_phase(const std::atomic<bool>* cancel,
                                        const SessionInjection& inject,
                                        const HealthContext& health) {
  TOREX_REQUIRE(!complete(), "session exchange already complete");
  const int phase = phases_done_ + 1;
  stepper_.seal.tamperer = inject.corrupt_phase == phase ? &kFlipRunTableBit : nullptr;

  for (int step = next_step_; step <= algo_->steps_in_phase(phase); ++step) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      flight_note("svc.cancelled", health, phase, step);
      detail::throw_journal_cancelled(phase, step);
    }
    if (health.active() && !health_gate(phase, step, health)) {
      next_step_ = step;  // resume exactly here; nothing was mutated
      return PhaseOutcome::kDeferred;
    }

    // The tenant's frame quota is checked at lease time, before the
    // arena is touched. A refused frame kills this session only; either
    // throw leaves the step's frames back in the arena.
    std::size_t sent = 0;
    try {
      sent = stepper_.run(buffers_, phase, step, [&](std::int64_t held) {
        if (frame_quota_ > 0 && held >= frame_quota_) {
          flight_note("svc.quota_breach", health, phase, step, held + 1);
          throw SessionQuotaError(id_, held, frame_quota_);
        }
        peak_leased_ = std::max(peak_leased_, held + 1);
      });
    } catch (const IntegrityError& error) {
      const IntegrityViolation& refused = *error.report().fatal;
      flight_note("svc.integrity_refused", health, phase, step, refused.src);
      throw SessionIntegrityError(id_, phase, step, refused.reason);
    }

    // Write-ahead order, shared with the journaled executor: the crash
    // injection and the cancel window sit between flush and commit.
    detail::write_ahead_step(
        journal_, flat_step_, buffers_, stepper_.received_at(), arrivals_, [](Rank, Rank) {},
        [&](bool flushed) {
          if (!flushed) return;
          if (inject.crash_phase == phase && step == 1) {
            flight_note("svc.crash", health, phase, step);
            throw ExchangeCrashError(phase, step,
                                     "injected session crash after journal flush (phase " +
                                         std::to_string(phase) + ", step " +
                                         std::to_string(step) + ")");
          }
          if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            flight_note("svc.cancelled", health, phase, step);
            detail::throw_journal_cancelled(phase, step);
          }
        });
    flight_note("wire.step", health, phase, step, static_cast<std::int64_t>(sent));
    ++flat_step_;
  }
  next_step_ = 1;
  journal_.commit_phase(phase);
  ++phases_done_;
  return PhaseOutcome::kComplete;
}

std::vector<std::vector<Word>> SessionExchange::take_result() {
  const auto N = static_cast<std::size_t>(algo_->shape().num_nodes());
  std::vector<std::vector<Word>> recv(N, std::vector<Word>(N));
  take_result_into(detail::dense_views(recv));
  return recv;
}

void SessionExchange::take_result_into(const std::vector<StridedView<Word>>& recv) {
  TOREX_REQUIRE(complete(), "session result requested before the exchange finished");
  const Rank N = algo_->shape().num_nodes();
  detail::check_parcel_postcondition(N, buffers_);
  TOREX_CHECK(journal_.exchange_complete(), "session journal incomplete after a finished exchange");
  scatter_parcels_strided(N, buffers_, recv);
  // The session lives on in its manager slot to serve journal(); keep
  // none of its parcel storage.
  buffers_ = {};
}

}  // namespace torex
