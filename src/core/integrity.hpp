// Data-integrity layer for payload exchanges: tamper hooks and the
// detect-and-retransmit protocol's report types.
//
// The schedule proofs elsewhere in this library guarantee *where*
// blocks go; they say nothing about the bytes surviving the trip. This
// module gives payload exchanges an end-to-end check: every message is
// sealed as a TOX3 frame (phase/step/channel metadata, header CRC-32
// and a CRC-32 over the whole frame, see core/payload_exchange.hpp), a
// tamper hook lets the fault model corrupt the wire bytes in flight,
// and the receiver verifies the frame before integrating it. A
// detected corruption triggers a bounded retransmit; an exhausted
// budget raises IntegrityError carrying the full report, which the
// communicator escalates into the PR-1 recovery chain.
//
// Tick semantics: transmission attempt `a` of the message for schedule
// step `s` (0-based, global) happens at tick `base_tick + ticks so
// far + a` — retransmits consume ticks, so a transient corruption
// window heals under retry exactly like a transient channel fault
// heals under backoff.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire_buffer.hpp"
#include "topology/torus.hpp"

namespace torex {

// --- Tamper hook -------------------------------------------------------

/// Everything a tamperer (or any wire observer) knows about one
/// transmission attempt: the schedule coordinates, the directed
/// straight-line route, the fault tick, and which attempt this is
/// (0 = first transmission, >= 1 = retransmit).
struct TransferContext {
  int phase = 0;  ///< 1-based schedule coordinates
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  Direction direction;  ///< transmit dimension/sign of this step
  int hops = 0;         ///< straight-line hop count of this phase
  std::int64_t tick = 0;
  int attempt = 0;
};

/// In-flight corruption hook: may mutate the wire bytes; returns true
/// when it tampered. An empty std::function means a clean wire.
using ParcelTamperer =
    std::function<bool(const TransferContext&, std::vector<std::byte>&)>;

// --- Protocol configuration and reporting ------------------------------

/// Knobs for the detect-and-retransmit protocol.
struct IntegrityOptions {
  /// Retransmission attempts per message per step after the first
  /// transmission; exhausting them raises IntegrityError.
  int max_retransmits = 3;
  /// Fault tick the first schedule step transmits at.
  std::int64_t base_tick = 0;
  /// Optional external frame pool. When null the exchange uses a
  /// private arena; supplying one lets frames (and the arena's pool /
  /// traffic statistics) survive across exchanges.
  WireArena* arena = nullptr;
};

/// One detected integrity violation (a seal that failed verification).
struct IntegrityViolation {
  int phase = 0;
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  Direction direction;
  int hops = 0;
  std::int64_t tick = 0;
  int attempt = 0;      ///< attempt that failed (0 = first transmission)
  std::string reason;   ///< what the verifier rejected

  std::string describe() const;
};

/// Outcome of one sealed exchange: how much was verified, what was
/// caught, and what it cost to correct.
struct IntegrityReport {
  std::int64_t messages = 0;      ///< sealed messages delivered
  std::int64_t parcels = 0;       ///< sealed parcels verified
  std::int64_t corrupted = 0;     ///< deliveries rejected by the verifier
  std::int64_t retransmits = 0;   ///< retransmissions performed
  std::int64_t final_tick = 0;    ///< tick after the last step
  /// First kMaxRecordedViolations violations in schedule order;
  /// `corrupted` counts all of them.
  std::vector<IntegrityViolation> violations;
  /// The violation that exhausted its retransmit budget, when one did.
  std::optional<IntegrityViolation> fatal;

  static constexpr std::size_t kMaxRecordedViolations = 64;

  bool clean() const { return corrupted == 0; }
};

/// Raised when a message exhausts its retransmit budget: the corruption
/// is persistent and the exchange cannot self-correct. Carries the full
/// report so callers can attribute the failure (the communicator uses
/// it to escalate into the recovery chain).
class IntegrityError : public std::runtime_error {
 public:
  IntegrityError(const std::string& what, IntegrityReport report);

  const IntegrityReport& report() const { return report_; }

 private:
  IntegrityReport report_;
};

}  // namespace torex
