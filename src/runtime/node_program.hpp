// Node-local execution: the schedule as a real multicomputer would run
// it.
//
// The engines elsewhere in this library are omniscient — one object
// owns every buffer. A real torus machine cannot do that: each node
// must decide what to send using only (a) a constant amount of local
// configuration and (b) the blocks it currently holds. This module
// demonstrates that the Suh-Shin schedule has exactly that property:
//
//   * `LocalSchedule` is the per-node configuration a port would ship
//     to each processor: the torus shape (a few integers), the node's
//     own rank/coordinates, and its per-(phase, step) partner and
//     dimension — O(n * steps) integers, independent of N beyond the
//     shape itself.
//   * `NodeProgram` evaluates the forwarding predicate for a block
//     using nothing but the LocalSchedule and mod-4 arithmetic on the
//     block's destination coordinates.
//
// A port runs N such programs in lockstep, one message per node per
// step into single-writer mailboxes (sound because of the one-port
// property); the lockstep harness itself is what the port's runtime
// (MPI, say) supplies. Tests drive N programs through such a loop and
// pin their per-step traffic against the omniscient engine.
#pragma once

#include <cstddef>
#include <vector>

#include "core/aape.hpp"
#include "core/block.hpp"

namespace torex {

/// The constant-size configuration one node needs.
struct LocalSchedule {
  TorusShape shape;      ///< global geometry (a few integers)
  Rank self = 0;         ///< this node's rank
  Coord self_coord;      ///< cached coordinates of `self`

  /// Phase structure (same for every node).
  struct PhaseInfo {
    PhaseKind kind = PhaseKind::kScatter;
    int steps = 0;
    int hops = 0;
  };
  std::vector<PhaseInfo> phases;

  /// Per (phase, step): this node's partner and transmit dimension.
  /// Indexed by the flat step number (0-based across the schedule).
  struct StepPlan {
    Rank partner = 0;
    int dim = 0;
  };
  std::vector<StepPlan> plan;

  LocalSchedule() : shape({1, 1}) {}
};

/// Extracts one node's configuration from the schedule. This is the
/// only place the global object is consulted; afterwards the node is
/// self-sufficient.
LocalSchedule extract_local_schedule(const SuhShinAape& algo, Rank node);

/// One node's program: holds its buffer and answers, per step, which
/// held blocks to send, using only local data.
class NodeProgram {
 public:
  explicit NodeProgram(LocalSchedule schedule);

  /// Seeds the canonical initial workload: one block per destination.
  void seed_canonical();
  /// Seeds an arbitrary workload (blocks must originate here).
  void seed(std::vector<Block> blocks);

  /// Partitions the buffer for flat step `s`; returns the blocks to
  /// ship (removed from the buffer) and the partner to ship them to.
  /// An empty vector means the node idles this step.
  std::vector<Block> collect_outgoing(std::size_t flat_step, Rank& partner_out);

  /// Accepts a delivered message.
  void integrate(std::vector<Block> message);

  const std::vector<Block>& buffer() const { return buffer_; }
  const LocalSchedule& schedule() const { return schedule_; }

 private:
  bool should_send(std::size_t flat_step, const Block& b) const;

  LocalSchedule schedule_;
  std::vector<Block> buffer_;
};

}  // namespace torex
