// Threaded BSP executor for the exchange.
//
// The sequential ExchangeEngine is the reference; this runtime executes
// the same schedule with a pool of worker threads in bulk-synchronous
// steps, exploiting a structural property of the algorithm: the
// one-port model means every node receives from exactly one source per
// step, so each inbox has a single writer and the send phase needs no
// locks at all. Two std::barrier rendezvous per step (send, then
// integrate) keep the supersteps aligned.
//
// The runtime is self-checking about its own liveness and error
// propagation, not just the schedule's postcondition:
//   * a throw inside a worker is captured (first exception wins) and
//     rethrown from run_verified on the calling thread — never
//     std::terminate;
//   * a watchdog on the calling thread enforces a no-progress deadline
//     per superstep: a wedged worker surfaces as RuntimeStallError
//     naming the stuck (phase, step, node) instead of a silent hang;
//   * cooperative cancellation: workers observe a cancel flag at every
//     superstep boundary and unwind, and an external flag can request
//     cancellation mid-run (ExchangeCancelledError).
//
// On a many-core host this parallelizes the simulation of large tori;
// on any host it is a machine-checked witness that the schedule's
// communication pattern is data-race-free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/aape.hpp"
#include "core/exchange_engine.hpp"
#include "core/trace.hpp"
#include "runtime/watchdog.hpp"

namespace torex {

/// Options for the threaded executor.
struct ParallelOptions {
  /// Worker threads; 0 = hardware concurrency.
  int num_threads = 0;

  /// Watchdog: maximum wall time a superstep may go without any worker
  /// passing a barrier before the run is declared stalled and aborted
  /// with RuntimeStallError. 0 disables the watchdog.
  std::chrono::milliseconds stall_deadline{30000};

  /// Absolute whole-run budget: a run still incomplete this long after
  /// it started is cancelled and aborted with DeadlineExceededError —
  /// even while workers keep making (too slow) progress, which the
  /// relative stall deadline above would never catch. 0 disables.
  std::chrono::milliseconds run_deadline{0};

  /// Cooperative cancellation: when non-null and set to true, workers
  /// unwind at the next superstep boundary and run_verified throws
  /// ExchangeCancelledError.
  const std::atomic<bool>* cancel = nullptr;

  /// Fault-injection seam for tests: invoked in the send half before
  /// each node is partitioned. Receives the internal cancel flag so a
  /// deliberately wedged hook can unblock once the watchdog fires. A
  /// throw from the hook is captured and rethrown like any worker
  /// exception.
  std::function<void(int phase, int step, Rank node, const std::atomic<bool>& cancel)>
      before_send_hook;

  /// Failure-detector probe, polled by the monitor thread alongside the
  /// watchdog: returning a rank names a node suspected dead and aborts
  /// the run as CrashSuspectedError at the next superstep boundary —
  /// *before* the stall deadline would have fired. Null disables.
  std::function<std::optional<Rank>()> suspect_probe;

  /// Optional telemetry sink: superstep spans, barrier-wait histogram,
  /// watchdog arm/fire events. The workers keep their own copy of the
  /// recorder handle, so a detached (stalled) worker records safely even
  /// after the caller's recorder is gone.
  Recorder* obs = nullptr;
};

/// Runs the exchange with a BSP thread pool. Produces the same final
/// state and per-step block counts as the sequential ExchangeEngine.
class ParallelExchange {
 public:
  ParallelExchange(const SuhShinAape& algorithm, ParallelOptions options = {});

  /// Executes all phases and verifies the AAPE postcondition.
  /// Returns the traffic trace (per-step counts; transfer detail is
  /// aggregated without a deterministic order guarantee across
  /// threads, so only counts are recorded). Throws the first worker
  /// exception, RuntimeStallError on a watchdog-detected stall, or
  /// ExchangeCancelledError on external cancellation.
  ExchangeTrace run_verified();

  /// Buffers after the last run.
  const std::vector<std::vector<Block>>& buffers() const { return buffers_; }

 private:
  const SuhShinAape& algo_;
  ParallelOptions options_;
  std::vector<std::vector<Block>> buffers_;
};

}  // namespace torex
