// Functional executor for Suh-Shin AAPE schedules.
//
// Simulates every node's buffer as a multiset of (origin, dest) blocks
// and plays the schedule step by step: each node evaluates the
// forwarding predicate over its buffer, ships the matching blocks to
// its fixed partner, and keeps the rest. The engine enforces the
// one-port model (each node sends at most one message and receives from
// at most one source per step) and can verify both the final AAPE
// permutation and the paper's intermediate phase invariants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <vector>

#include "core/aape.hpp"
#include "core/block.hpp"
#include "core/trace.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace torex {

/// Observer invoked after each step's messages are delivered. Receives
/// the 1-based (phase, step), the step's record, and all node buffers.
using StepObserver = std::function<void(int phase, int step, const StepRecord& record,
                                        const std::vector<std::vector<Block>>& buffers)>;

/// Options controlling how much the engine checks while running.
struct EngineOptions {
  /// Verify after phase n that every block sits on its proxy node, and
  /// after phase n+1 that every block reached its destination's 2x..x2
  /// half-submesh. O(total blocks) per phase boundary.
  bool check_phase_invariants = true;
  /// Record per-transfer detail in the trace (figure benches need it;
  /// large sweeps can turn it off to save memory).
  bool record_transfers = true;
  /// Optional per-step callback (figure benches, debugging).
  StepObserver on_step_end;
  /// Optional telemetry sink: phase/step spans, step-latency histogram,
  /// blocks-moved counters. Null (the default) costs nothing.
  Recorder* obs = nullptr;
};

/// Checks the AAPE postcondition on arbitrary buffers: node p must hold
/// exactly {(q, p) : q in nodes}. Throws std::logic_error with a
/// description of the first violation. Used by the engines and directly
/// by fault-injection tests.
void verify_aape_postcondition(const TorusShape& shape,
                               const std::vector<std::vector<Block>>& buffers);

/// The canonical AAPE seed: node p holds {(p, d) : d in 0..N-1}, in
/// destination order.
std::vector<std::vector<Block>> canonical_blocks(Rank num_nodes);

/// One store-and-forward step of a block-level exchange — the step the
/// engine, the Bruck, dimension-wise and ring baselines and the padded
/// runner share. Every node p stable-partitions its buffer by the
/// predicate `select(p)` returns (true = ship the block), ships the
/// selected blocks as one message to `to(p)` (asked only when p sends),
/// and after all nodes have sent, appends each inbox to its buffer.
/// `on_message(p, q, blocks)` sees every non-empty message in
/// ascending-sender order. `inbox` is scratch with one empty entry per
/// node and is left empty. Throws std::logic_error when a node
/// addresses itself or would receive two messages in one step (the
/// one-port model).
template <typename Select, typename To, typename OnMessage>
void forward_blocks(std::vector<std::vector<Block>>& buffers,
                    std::vector<std::vector<Block>>& inbox, Select&& select, To&& to,
                    OnMessage&& on_message) {
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const Rank p = static_cast<Rank>(i);
    auto& buf = buffers[i];
    const auto send = select(p);
    const auto split = std::stable_partition(buf.begin(), buf.end(),
                                             [&](const Block& b) { return !send(b); });
    const std::int64_t sent = std::distance(split, buf.end());
    if (sent == 0) continue;  // idle node: empty message
    const Rank q = to(p);
    TOREX_CHECK(q != p, "node addressed itself");
    auto& in = inbox[static_cast<std::size_t>(q)];
    TOREX_CHECK(in.empty(), "one-port violation: node receives two messages in one step");
    in.assign(split, buf.end());
    buf.erase(split, buf.end());
    on_message(p, q, sent);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    auto& in = inbox[i];
    buffers[i].insert(buffers[i].end(), in.begin(), in.end());
    in.clear();
  }
}

/// Runs one complete exchange over an in-memory model of the torus.
class ExchangeEngine {
 public:
  explicit ExchangeEngine(const SuhShinAape& algorithm, EngineOptions options = {});

  /// Executes all phases from the canonical initial state (node p holds
  /// {(p, d) : d in nodes}) and returns the traffic trace. Throws if
  /// any invariant (one-port, phase placement) is violated.
  ExchangeTrace run();

  /// Executes and additionally verifies the AAPE postcondition: node p
  /// ends holding exactly {(q, p) : q in nodes}.
  ExchangeTrace run_verified();

  /// Executes from a custom workload — the Alltoallv generalization:
  /// initial[p] may hold any multiset of blocks with origin p (zero,
  /// one, or many per destination; empty nodes allowed). The schedule
  /// is oblivious to counts, so the same steps deliver everything.
  /// Verifies that the delivered multisets match the sent ones.
  ExchangeTrace run_custom(std::vector<std::vector<Block>> initial);

  /// Buffers after the last run (node -> blocks held).
  const std::vector<std::vector<Block>>& buffers() const { return buffers_; }

  /// Verifies the postcondition on the current buffers.
  void verify_postcondition() const;

 private:
  /// Plays every phase over buffers_ (seeded by the caller): the one
  /// phase/step loop behind run() and run_custom().
  ExchangeTrace play();
  void execute_step(int phase, int step, StepRecord& record);
  void check_after_scatter() const;
  void check_after_quarter() const;

  const SuhShinAape& algo_;
  EngineOptions options_;
  std::vector<std::vector<Block>> buffers_;
  std::vector<std::vector<Block>> incoming_;  // forward_blocks scratch
};

}  // namespace torex
